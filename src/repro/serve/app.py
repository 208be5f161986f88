"""The HTTP surface of ``repro serve`` (stdlib ``http.server`` only).

One :class:`ReproServer` (a ``ThreadingHTTPServer``) fronts one
:class:`~repro.serve.jobs.JobManager`.  Handler threads are cheap and
blocking: REST endpoints answer immediately from manager state; SSE
endpoints park in :meth:`EventStream.subscribe` and stream frames until
the job's stream closes or the client disconnects.  Connections use
HTTP/1.0 close-delimited framing, so event streams need no chunked
encoding and end naturally when the handler returns.

API (all under ``/v1`` unless noted)::

    GET    /healthz              liveness + job-state counts
    GET    /v1/scenarios         preset catalog (repro scenario list --json)
    POST   /v1/jobs              submit a scenario manifest -> 202 + job
    GET    /v1/jobs              all jobs, submission order
    GET    /v1/jobs/<id>         one job (?results=1 adds per-point metrics)
    DELETE /v1/jobs/<id>         cancel (running -> checkpointed partial)
    GET    /v1/jobs/<id>/events  SSE stream (?after=N resumes past id N)
    POST   /v1/replay            SSE wall-clock replay of one point

Errors are JSON: ``{"error": "..."}`` with 4xx/5xx status.  The store the
server records into is read with ``repro db`` (query, regress, report).
"""

from __future__ import annotations

import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.eval.scenario import preset_catalog
from repro.serve.jobs import JobManager
from repro.serve.replay import ReplayRequest, replay_stream
from repro.serve.sse import sse_frame

__all__ = ["ReproServer", "make_server"]


class ReproServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one job manager."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        manager: JobManager,
        *,
        db_path: Optional[str] = None,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, _Handler)
        self.manager = manager
        self.db_path = db_path
        self.verbose = verbose


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    run_root: str,
    db_path: Optional[str] = None,
    jobs: Any = 1,
    verbose: bool = False,
) -> ReproServer:
    """Build and start the service: manager (with recovery) + HTTP server.

    ``port=0`` binds an ephemeral port (tests); the bound address is
    ``server.server_address``.  The caller owns the serve loop
    (``serve_forever``) and shutdown (``server.shutdown()`` +
    ``server.manager.stop()``).
    """
    manager = JobManager(run_root, db_path=db_path, jobs=jobs)
    manager.start()
    return ReproServer((host, port), manager, db_path=db_path, verbose=verbose)


def _first(params: Dict[str, Any], key: str) -> Optional[str]:
    values = params.get(key)
    return values[0] if values else None


def _non_negative_int(params: Dict[str, Any], key: str) -> int:
    """A non-negative integer query parameter (absent: 0); anything else
    is a 400 naming the parameter."""
    raw = _first(params, key)
    if raw is None:
        return 0
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{key} must be a non-negative integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(f"{key} must be >= 0, got {value}")
    return value


def _truthy(value: Optional[str]) -> bool:
    return (value or "").strip().lower() in ("1", "true", "yes", "on")


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    # close-delimited responses: SSE streams end when the handler returns
    protocol_version = "HTTP/1.0"
    server: ReproServer  # narrowed for type checkers

    # -- plumbing ---------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            sys.stderr.write(
                "repro-serve: %s %s\n" % (self.address_string(), format % args)
            )

    def _send_json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_json_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body (expected JSON)")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from None

    def _start_sse(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()

    # -- dispatch ---------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        url = urlsplit(self.path)
        params = parse_qs(url.query)
        parts = [p for p in url.path.split("/") if p]
        try:
            if url.path == "/healthz":
                self._send_json(
                    200, {"ok": True, "jobs": self.server.manager.counts()}
                )
            elif url.path == "/v1/scenarios":
                self._send_json(200, {"scenarios": preset_catalog()})
            elif url.path == "/v1/jobs":
                self._send_json(
                    200,
                    {"jobs": [j.as_dict() for j in self.server.manager.list_jobs()]},
                )
            elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                self._get_job(parts[2], params)
            elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "events":
                self._stream_job_events(parts[2], params)
            else:
                self._send_error_json(404, f"no such endpoint: {url.path}")
        except KeyError as exc:
            self._send_error_json(404, str(exc.args[0] if exc.args else exc))
        except ValueError as exc:
            self._send_error_json(400, str(exc))
        except BrokenPipeError:
            pass  # client went away mid-response

    def do_POST(self) -> None:  # noqa: N802
        url = urlsplit(self.path)
        try:
            if url.path == "/v1/jobs":
                self._submit_job()
            elif url.path == "/v1/replay":
                self._replay()
            else:
                self._send_error_json(404, f"no such endpoint: {url.path}")
        except ValueError as exc:
            self._send_error_json(400, str(exc))
        except BrokenPipeError:
            pass

    def do_DELETE(self) -> None:  # noqa: N802
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                job = self.server.manager.cancel(parts[2])
                self._send_json(200, job.as_dict())
            else:
                self._send_error_json(404, f"no such endpoint: {url.path}")
        except KeyError as exc:
            self._send_error_json(404, str(exc.args[0] if exc.args else exc))
        except BrokenPipeError:
            pass

    # -- job endpoints -----------------------------------------------------------
    def _submit_job(self) -> None:
        body = self._read_json_body()
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        source = body.get("scenario")
        if source is None:
            raise ValueError("request needs a 'scenario' (manifest, preset or path)")
        try:
            job = self.server.manager.submit(
                source, label=str(body.get("label") or "")
            )
        except RuntimeError as exc:  # manager stopped
            self._send_error_json(503, str(exc))
            return
        self._send_json(202, job.as_dict())

    def _get_job(self, job_id: str, params: Dict[str, Any]) -> None:
        job = self.server.manager.get(job_id)
        payload = job.as_dict()
        if _truthy(_first(params, "results")):
            payload["results"] = job.point_results()
        self._send_json(200, payload)

    def _stream_job_events(self, job_id: str, params: Dict[str, Any]) -> None:
        job = self.server.manager.get(job_id)
        after = _non_negative_int(params, "after")
        self._start_sse()
        try:
            for frame in job.stream.subscribe(after):
                self.wfile.write(frame)
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # subscriber disconnected; the generator just stops

    # -- replay ---------------------------------------------------------------------
    def _replay(self) -> None:
        body = self._read_json_body()
        request = ReplayRequest.from_payload(body, db_path=self.server.db_path)
        self._start_sse()
        seq = [0]

        def sink(event: str, payload: Dict[str, Any]) -> None:
            seq[0] += 1
            self.wfile.write(sse_frame(event, payload, id=seq[0]))
            self.wfile.flush()

        try:
            summary = replay_stream(
                request, sink, trace_cache=self.server.manager.trace_cache
            )
        except (BrokenPipeError, ConnectionResetError, OSError):
            return  # client went away; the engine run was aborted with it
        except Exception as exc:
            try:
                self.wfile.write(
                    sse_frame(
                        "replay.failed",
                        {"error": f"{type(exc).__name__}: {exc}"},
                        id=seq[0] + 1,
                    )
                )
            except OSError:
                pass
            return
        try:
            self.wfile.write(sse_frame("replay.finished", summary, id=seq[0] + 1))
            self.wfile.flush()
        except OSError:
            pass
