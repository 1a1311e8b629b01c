"""``reproserve`` console entry point.

Boots a REACH engine (a ``ShardedEngine`` with ``--shards N`` > 1),
serves it over the wire protocol, and drains gracefully on
SIGTERM/SIGINT::

    reproserve --port 7707 --data-dir /var/lib/reach \\
               --token s3cret=acme --token hunter2=globex \\
               --rate-limit 500 --admin-port 7708

Tokens map bearer credentials to tenants; with no ``--token`` the
server is open and every client lands in the ``default`` tenant.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.config import ExecutionConfig, ServerConfig


def _parse_tokens(pairs: list[str]) -> Optional[dict]:
    if not pairs:
        return None
    tokens = {}
    for pair in pairs:
        token, sep, tenant = pair.partition("=")
        if not sep or not token or not tenant:
            raise SystemExit(f"--token wants TOKEN=TENANT, got {pair!r}")
        tokens[token] = tenant
    return tokens


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reproserve",
        description="Serve a REACH active-OODBMS engine over the wire "
                    "protocol.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7707)
    parser.add_argument("--data-dir", default=None,
                        help="durable storage directory (default: "
                             "in-memory)")
    parser.add_argument("--token", action="append", default=[],
                        metavar="TOKEN=TENANT",
                        help="bearer token -> tenant mapping; repeatable. "
                             "No tokens = open server.")
    parser.add_argument("--rate-limit", type=float, default=None,
                        metavar="REQ_PER_S",
                        help="per-tenant token-bucket refill rate")
    parser.add_argument("--rate-burst", type=int, default=32)
    parser.add_argument("--drain-timeout", type=float, default=10.0)
    parser.add_argument("--admin-port", type=int, default=None,
                        help="also serve the loopback admin endpoint")
    parser.add_argument("--shards", type=int, default=None,
                        help="shard the engine over N OID-range kernels")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    server_config = ServerConfig(
        host=args.host, port=args.port,
        auth_tokens=_parse_tokens(args.token),
        rate_limit=args.rate_limit, rate_burst=args.rate_burst,
        drain_timeout=args.drain_timeout)
    config_kwargs = {"server": server_config}
    if args.admin_port is not None:
        config_kwargs["admin_port"] = args.admin_port
    if args.shards is not None:
        from repro.config import ShardingConfig
        config_kwargs["sharding"] = ShardingConfig(shards=args.shards)
    config = ExecutionConfig(**config_kwargs)

    from repro.server.server import ReachServer

    if config.sharding.shards > 1:
        from repro.core.sharding import ShardedEngine as Engine
    else:
        from repro.core.engine import ReachEngine as Engine
    engine = Engine(directory=args.data_dir, config=config)
    server = ReachServer(engine, server_config)
    try:
        server.start()
        server.install_signal_handlers()
        host, port = server.address
        print(f"reproserve listening on {host}:{port} "
              f"(tenants: {'open' if server_config.auth_tokens is None else len(server_config.auth_tokens)})",
              file=sys.stderr)
        server.stop_requested.wait()
        print("reproserve draining...", file=sys.stderr)
    finally:
        server.close()
        engine.close()
    print("reproserve stopped.", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
