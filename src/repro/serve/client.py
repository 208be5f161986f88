"""A minimal stdlib client for the ``repro serve`` API.

Used by the test suite, the CI smoke harness and
``examples/serve_client.py``; also a reasonable starting point for your
own tooling — it is plain :mod:`urllib`, no dependencies.

.. code-block:: python

    client = ServeClient("http://127.0.0.1:8731")
    job = client.submit({"trace": {"profile": "DART", "seed": 1},
                         "protocols": ["DTN-FLOW"], "seeds": [1]})
    for event, data in client.events(job["id"]):
        print(event, data)           # ends when the job reaches a terminal state
    final = client.job(job["id"], results=True)
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

__all__ = ["ServeClient", "ServeError", "parse_sse"]

#: job states after which no further transitions happen
TERMINAL_STATES = ("done", "failed", "cancelled")


class ServeError(RuntimeError):
    """An API call failed; carries the HTTP status and the server's message."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        super().__init__(f"HTTP {status}: {message}")


def parse_sse(lines: Iterator[bytes]) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Parse an SSE byte-line stream into ``(event, data)`` pairs.

    Comment lines (heartbeats) are skipped; the iterator ends with the
    underlying stream (the server closes it once the job's stream closes).
    """
    event: Optional[str] = None
    data: List[str] = []
    for raw in lines:
        line = raw.decode("utf-8").rstrip("\r\n")
        if not line:  # blank line: dispatch the pending frame
            if event is not None and data:
                yield event, json.loads("\n".join(data))
            event, data = None, []
            continue
        if line.startswith(":"):
            continue
        field, _, value = line.partition(":")
        value = value.lstrip(" ")
        if field == "event":
            event = value
        elif field == "data":
            data.append(value)


class ServeClient:
    """Blocking JSON/SSE client for one ``repro serve`` endpoint."""

    def __init__(self, base_url: str, *, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- plumbing -----------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        *,
        body: Optional[Mapping[str, Any]] = None,
        params: Optional[Mapping[str, Any]] = None,
    ) -> Any:
        url = self.base_url + path
        if params:
            url += "?" + urllib.parse.urlencode(
                {k: v for k, v in params.items() if v is not None}
            )
        data = json.dumps(body).encode("utf-8") if body is not None else None
        req = urllib.request.Request(
            url, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except (ValueError, AttributeError):
                pass
            raise ServeError(exc.code, detail) from None

    def _stream(
        self, method: str, path: str, *, body: Optional[Mapping[str, Any]] = None
    ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        req = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            resp = urllib.request.urlopen(req, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            raise ServeError(exc.code, exc.read().decode("utf-8", "replace")) from None
        with resp:
            yield from parse_sse(iter(resp.readline, b""))

    # -- API ----------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def scenarios(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/scenarios")["scenarios"]

    def submit(
        self, scenario: Union[str, Mapping[str, Any]], *, label: str = ""
    ) -> Dict[str, Any]:
        """Submit a manifest dict, preset name or server-side path."""
        return self._request(
            "POST", "/v1/jobs", body={"scenario": scenario, "label": label}
        )

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def job(self, job_id: str, *, results: bool = False) -> Dict[str, Any]:
        return self._request(
            "GET", f"/v1/jobs/{job_id}",
            params={"results": "1"} if results else None,
        )

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def wait(
        self, job_id: str, *, timeout: float = 300.0, poll: float = 0.2
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; returns the record."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["state"] in TERMINAL_STATES:
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']!r} after {timeout}s"
                )
            time.sleep(poll)

    def events(
        self, job_id: str, *, after: int = 0
    ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """The job's SSE stream; ends once the job is terminal and drained."""
        return self._stream("GET", f"/v1/jobs/{job_id}/events?after={after}")

    def replay(
        self,
        scenario: Union[str, Mapping[str, Any], None] = None,
        *,
        point: Optional[str] = None,
        speed: float = 0.0,
        events: Optional[List[str]] = None,
        limit: Optional[int] = None,
    ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """Stream a wall-clock replay; ends with ``replay.finished``."""
        body: Dict[str, Any] = {"speed": speed}
        if scenario is not None:
            body["scenario"] = scenario
        if point is not None:
            body["point"] = point
        if events is not None:
            body["events"] = events
        if limit is not None:
            body["limit"] = limit
        return self._stream("POST", "/v1/replay", body=body)
