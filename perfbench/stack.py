"""Spawn, connect and tear down the live stack of one repetition.

The service and every pool are separate OS processes (see
:mod:`roles`); the benchmark process is the driver.  Children get one
BLAS/OpenMP thread each and a fresh sqlite file in the repetition's
directory.  :meth:`Stack.close` stops every child, killing any that do
not exit in time, so no role outlives an error or a timeout.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import probes
from repro.core.eqsql import EQSQL
from repro.core.service_client import RemoteTaskStore

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Pin numeric libraries to one thread in every role: the host has few
#: cores and the roles share them.
THREAD_ENV = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
#: Bound on any handshake or shutdown step.
STEP_TIMEOUT = 30.0


class RoleError(RuntimeError):
    """A role process failed, exited early or did not answer in time."""


class Role:
    """One child process and its line-oriented JSON channel."""

    def __init__(self, name: str, args: list[str]) -> None:
        self.name = name
        env = dict(os.environ, **THREAD_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-u", str(HERE / "roles.py"), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            bufsize=0,
        )
        self._buf = b""

    def send(self, message: dict) -> None:
        try:
            self.proc.stdin.write((json.dumps(message) + "\n").encode())
        except (BrokenPipeError, OSError) as exc:
            raise RoleError(f"{self.name}: cannot write: {exc}") from exc

    def receive(self, timeout: float = STEP_TIMEOUT) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise RoleError(f"{self.name}: no answer within {timeout:.0f} s")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RoleError(f"{self.name}: exited with {self.proc.wait()}")
                self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def kill(self) -> None:
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Stack:
    """Service + pools for one repetition, driven from this process.

    ``kinds`` lists each pool's handler kind; the first ``start_now``
    pools start during set-up, the rest on :meth:`start_pool`.
    ``setup_s`` spans spawning every role (imports included) until the
    driver's first RPC after all pools are connected is answered.
    """

    def __init__(
        self,
        workdir: Path,
        kinds: list[str],
        start_now: int,
        trace: bool,
        corrupt_first: bool = False,
        cpu: int | None = None,
        eqsql_cls: type = EQSQL,
        client_cls: type = RemoteTaskStore,
    ) -> None:
        self.workdir = workdir
        self.roles: list[Role] = []
        self.pools: list[Role] = []
        self.eqsql: EQSQL | None = None
        flag = ["--trace"] if trace else []
        if cpu is not None:
            flag += ["--cpu", str(cpu)]
        t0 = time.monotonic()
        try:
            self.service = self._spawn(
                "service",
                ["service", "--db", str(workdir / "emews.db"),
                 "--out", str(workdir / "service.json"), *flag],
            )
            for i, kind in enumerate(kinds):
                extra = ["--corrupt-first"] if corrupt_first and i == 0 else []
                self.pools.append(self._spawn(
                    f"pool{i + 1}",
                    ["pool", "--name", f"pool{i + 1}", "--kind", kind,
                     "--out", str(workdir / f"pool{i + 1}.json"), *flag, *extra],
                ))
            port = int(self.service.receive()["port"])
            for pool in self.pools:
                pool.send({"port": port})
            store = client_cls("127.0.0.1", port)
            self.eqsql = eqsql_cls(store, clock=probes.HostClock())
            for pool in self.pools:
                pool.receive()
            for pool in self.pools[:start_now]:
                pool.send({"cmd": "start"})
            store.max_task_id()
            self.setup_s = time.monotonic() - t0
        except BaseException:
            self.close()
            raise

    def _spawn(self, name: str, args: list[str]) -> Role:
        role = Role(name, args)
        self.roles.append(role)
        return role

    def start_pool(self, index: int) -> None:
        self.pools[index].send({"cmd": "start"})

    def shutdown(self) -> dict:
        """Stop pools, then the service; return every role's statistics."""
        if self.eqsql is not None:
            self.eqsql.close()
            self.eqsql = None
        # Pools first (their stop drains in parallel), then the service.
        for group in (self.pools, [self.service]):
            for role in group:
                role.send({"cmd": "stop"})
            for role in group:
                role.receive()
        stats = {
            "service": json.loads((self.workdir / "service.json").read_text()),
            "pools": [
                json.loads((self.workdir / f"pool{i + 1}.json").read_text())
                for i in range(len(self.pools))
            ],
        }
        self.close()
        return stats

    def close(self) -> None:
        """Stop every child still running; safe to call repeatedly."""
        if self.eqsql is not None:
            try:
                self.eqsql.close()
            except Exception:  # noqa: BLE001 - teardown must reach the kills
                pass
            self.eqsql = None
        for role in self.roles:
            try:
                role.proc.stdin.close()
            except OSError:
                pass
        deadline = time.monotonic() + 5.0
        for role in self.roles:
            try:
                role.proc.wait(max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
            role.kill()
        self.roles = []
