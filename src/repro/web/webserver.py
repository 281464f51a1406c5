"""Stand-alone web interface (section 4.3).

"We implemented it by using the Python scripting language to construct a
stand-alone web server and connecting it with the Ferret server using
the command line interface."  Faithfully reproduced: this stdlib
``http.server`` application issues protocol commands — either over TCP
to a :class:`repro.server.server.FerretServer` or in-process against a
:class:`repro.server.commands.CommandProcessor` — and renders results as
HTML.

Routes: ``/`` (home + forms), ``/query?id=&top=&method=&attr=``,
``/queryfile?path=&top=&method=``, ``/attrquery?q=``, ``/metrics``
(the metrics registry as plain text, same line format as the server's
``metrics`` command), ``/metrics.txt`` (the Prometheus text exposition
format, served through ``metrics -p`` so remote mode scrapes the
engine-owning process — point a scraper here), and ``/events`` (the event journal as an
HTML timeline, served through the ``events`` command).
"""

from __future__ import annotations

import argparse
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlparse

from ..observability import metrics as _metrics
from ..observability.log import get_logger, set_quiet
from ..server.client import ClientError
from ..server.commands import CommandProcessor
from ..server.protocol import ProtocolError, parse_command, quote
from .views import (
    ResultRenderer,
    render_events,
    render_home,
    render_page,
    render_results,
)

__all__ = ["WebApp", "FerretWebServer", "serve_web_background", "main"]

_LOG = get_logger("web")
_M_REQUESTS = _metrics.counter("web.requests")
_M_REQUEST_ERRORS = _metrics.counter("web.request_errors")
_M_ERR_ABSORBED = _metrics.counter("errors_absorbed.web.handle")


class WebApp:
    """Request-handling logic, separated from the HTTP plumbing.

    ``backend`` is anything with ``send(line) -> List[str]`` — a
    :class:`repro.server.client.FerretClient` for remote mode, or the
    :class:`_LocalBackend` wrapper for in-process mode.
    """

    def __init__(
        self,
        backend: "object",
        title: str = "Ferret similarity search",
        renderer: Optional[ResultRenderer] = None,
        attributes: Optional[Dict[int, Dict[str, str]]] = None,
    ) -> None:
        self.backend = backend
        self.title = title
        self.renderer = renderer
        self.attributes = attributes or {}

    # -- helpers -----------------------------------------------------------
    def _attrs_of(self, object_id: int) -> Dict[str, str]:
        return self.attributes.get(object_id, {})

    def _result_rows(self, lines: List[str]) -> List[Tuple[int, float, Dict[str, str]]]:
        rows = []
        for line in lines:
            oid, _, dist = line.partition(" ")
            object_id = int(oid)
            rows.append((object_id, float(dist), self._attrs_of(object_id)))
        return rows

    # -- routes -----------------------------------------------------------
    def content_type(self, path: str) -> str:
        """MIME type for a request path (``/metrics*`` are plain text)."""
        route = urlparse(path).path
        if route == "/metrics":
            return "text/plain; charset=utf-8"
        if route == "/metrics.txt":
            # The version parameter is part of Prometheus' exposition
            # content type; scrapers use it to pick a parser.
            return "text/plain; version=0.0.4; charset=utf-8"
        return "text/html; charset=utf-8"

    def handle(self, path: str) -> Tuple[int, str]:
        """Dispatch a request path; returns (status, body)."""
        _M_REQUESTS.inc()
        parsed = urlparse(path)
        params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        try:
            if parsed.path == "/":
                return 200, self._home()
            if parsed.path == "/query":
                return 200, self._query(params)
            if parsed.path == "/queryfile":
                return 200, self._queryfile(params)
            if parsed.path == "/attrquery":
                return 200, self._attrquery(params)
            if parsed.path == "/metrics":
                return 200, "\n".join(_metrics.get_registry().render()) + "\n"
            if parsed.path == "/metrics.txt":
                # Scrape endpoint: go through the `metrics -p` command so
                # remote mode scrapes the engine-owning process, not this
                # frontend.
                return 200, "\n".join(self.backend.send("metrics -p")) + "\n"
            if parsed.path == "/events":
                return 200, self._events(params)
            return 404, render_page(self.title, "<p class='err'>not found</p>")
        except (ClientError, ValueError, KeyError, OSError) as exc:
            # Expected request-level failures only: malformed parameters
            # (ValueError covers ProtocolError), backend/protocol errors,
            # missing objects, and I/O against a remote backend.  A bug
            # elsewhere (TypeError, numpy errors, ...) propagates to the
            # HTTP layer instead of being dressed up as a 500 page.
            _M_REQUEST_ERRORS.inc()
            _M_ERR_ABSORBED.inc()
            _LOG.warning(
                "request_failed",
                path=parsed.path,
                error=f"{type(exc).__name__}: {exc}",
            )
            return 500, render_page(
                self.title, f"<p class='err'>error: {type(exc).__name__}: {exc}</p>"
            )

    def _home(self, message: str = "") -> str:
        count = int(self.backend.send("count")[0])
        stats = {}
        for line in self.backend.send("stat"):
            key, _, value = line.partition(" ")
            stats[key] = value
        return render_home(self.title, count, stats, message)

    def _events(self, params: Dict[str, str]) -> str:
        line = "events"
        if params.get("n"):
            line += f" {int(params['n'])}"
        lines = self.backend.send(line)
        # First line is "events_total <n>"; the rest are journal rows.
        total = int(lines[0].partition(" ")[2]) if lines else 0
        return render_events(self.title, total, lines[1:])

    def _query(self, params: Dict[str, str]) -> str:
        if "id" not in params:
            return self._home("missing seed object id")
        parts = [
            f"query {int(params['id'])}",
            f"top={int(params.get('top', '10') or 10)}",
            f"method={params.get('method', 'filtering') or 'filtering'}",
        ]
        if params.get("attr"):
            parts.append(f"attr={quote(params['attr'])}")
        lines = self.backend.send(" ".join(parts))
        description = f"{len(lines)} results for object {params['id']}"
        if params.get("attr"):
            description += f" within attribute query {params['attr']!r}"
        return render_results(
            self.title, description, self._result_rows(lines), self.renderer
        )

    def _queryfile(self, params: Dict[str, str]) -> str:
        if not params.get("path"):
            return self._home("missing query file path")
        parts = [
            f"queryfile {quote(params['path'])}",
            f"top={int(params.get('top', '10') or 10)}",
            f"method={params.get('method', 'filtering') or 'filtering'}",
        ]
        lines = self.backend.send(" ".join(parts))
        return render_results(
            self.title,
            f"{len(lines)} results for file {params['path']!r}",
            self._result_rows(lines),
            self.renderer,
        )

    def _attrquery(self, params: Dict[str, str]) -> str:
        if not params.get("q"):
            return self._home("missing attribute query")
        lines = self.backend.send(f"attrquery {quote(params['q'])}")
        rows = [(int(line), 0.0, self._attrs_of(int(line))) for line in lines]
        return render_results(
            self.title,
            f"{len(rows)} objects match {params['q']!r}",
            rows,
            self.renderer,
        )


class _LocalBackend:
    """In-process adapter: the command protocol without a socket."""

    def __init__(self, processor: CommandProcessor) -> None:
        self.processor = processor

    def send(self, line: str) -> List[str]:
        return self.processor.execute(parse_command(line))


class _WebHandler(BaseHTTPRequestHandler):
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        app: WebApp = self.server.app  # type: ignore[attr-defined]
        status, page = app.handle(self.path)
        payload = page.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", app.content_type(self.path))
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args) -> None:  # silence stderr
        pass


class FerretWebServer(ThreadingHTTPServer):
    """HTTP server bound to ``(host, port)``; ``port=0`` = ephemeral."""

    def __init__(self, app: WebApp, host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__((host, port), _WebHandler)
        self.app = app


def serve_web_background(
    app: WebApp, host: str = "127.0.0.1", port: int = 0
) -> FerretWebServer:
    server = FerretWebServer(app, host, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: serve a web UI over an in-process demo engine."""
    parser = argparse.ArgumentParser(description="Ferret web interface")
    parser.add_argument("--datatype", default="image")
    parser.add_argument("--size", type=int, default=150)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress startup/progress logging (errors still log)",
    )
    args = parser.parse_args(argv)
    if args.quiet:
        set_quiet(True)

    from ..datatypes import build_demo_engine

    engine, _bench = build_demo_engine(args.datatype, size=args.size)
    processor = CommandProcessor(engine)
    app = WebApp(
        _LocalBackend(processor), title=f"Ferret {args.datatype} search"
    )
    server = FerretWebServer(app, args.host, args.port)
    host, port = server.server_address
    _LOG.info(
        "ready",
        url=f"http://{host}:{port}/",
        objects=len(engine),
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
