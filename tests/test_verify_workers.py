"""`run_all` runs its suites in forked workers: the same results as one process,
and every worker reaped whether a suite raises, a worker dies or Ctrl-C arrives."""

import os
import signal

import pytest

import biderlie.verify as verify_module
from biderlie import BUILTIN_NAMES, builtin, run_all
from biderlie.cli import main

from helpers import workers_only

def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counted_forks(monkeypatch) -> list:
    forks = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.mark.parametrize("seed", [0, 1])
def test_workers_give_the_results_of_one_process(monkeypatch, seed):
    forks = counted_forks(monkeypatch)
    for name in BUILTIN_NAMES:
        monkeypatch.setattr(verify_module, "usable_cpus", lambda: 4)
        several = run_all(builtin(name), seed=seed)
        monkeypatch.setattr(verify_module, "usable_cpus", lambda: 1)
        assert run_all(builtin(name), seed=seed) == several, name
    assert len(forks) == 3 * len(BUILTIN_NAMES)
    assert_no_child_left()


def test_a_suite_exception_in_a_worker_reaches_the_caller(monkeypatch):
    workers_only(monkeypatch)
    monkeypatch.setattr(verify_module, "symmetry_suite", raising(ValueError("broken suite")))
    with pytest.raises(ValueError, match="^broken suite$"):
        run_all(builtin("heisenberg3"))
    assert_no_child_left()


def raising(exc):
    def suite(*args, **kwargs):
        raise exc
    return suite


def test_the_lowest_suite_that_raises_is_raised(monkeypatch):
    # the queue holds the scalar class (index 6) before spaces (1); spaces raises
    monkeypatch.setattr(verify_module, "space_suite", raising(LookupError("spaces")))
    monkeypatch.setattr(verify_module, "scalar_suite", raising(LookupError("scalar")))
    for cpus in (1, 4):
        monkeypatch.setattr(verify_module, "usable_cpus", lambda: cpus)
        with pytest.raises(LookupError, match="spaces"):
            run_all(builtin("L2"))
    assert_no_child_left()


@pytest.mark.parametrize("death, status", [
    (lambda: os._exit(3), "exit status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {int(signal.SIGKILL)}"),
])
def test_a_worker_that_sends_no_results_is_an_error(monkeypatch, death, status):
    monkeypatch.setattr(verify_module, "usable_cpus", lambda: 2)
    monkeypatch.setattr(verify_module, "_worker", lambda queue, out, suites: death())
    with pytest.raises(RuntimeError, match=rf"ended without sending its suite results \({status}\)"):
        run_all(builtin("heisenberg3"))
    assert_no_child_left()


@pytest.mark.parametrize("where", ["alone", "parent", "worker"])
def test_interrupt_exits_130_after_the_workers_are_reaped(monkeypatch, capsys, where):
    # alone: one CPU, a suite interrupted; parent: the parent interrupted while a
    # worker runs, which it kills; worker: a suite interrupted in the worker
    if where == "alone":
        monkeypatch.setattr(verify_module, "usable_cpus", lambda: 1)
        monkeypatch.setattr(verify_module, "verify_lie_algebra", raising(KeyboardInterrupt))
    elif where == "parent":
        monkeypatch.setattr(verify_module, "usable_cpus", lambda: 2)
        real = verify_module._drain
        monkeypatch.setattr(verify_module, "_drain", lambda queue, suites, done, catch=Exception:
                            real(queue, suites, done, catch) if catch is BaseException
                            else raising(KeyboardInterrupt)())
    else:
        workers_only(monkeypatch)
        monkeypatch.setattr(verify_module, "verify_lie_algebra", raising(KeyboardInterrupt))
    assert main(["verify", "heisenberg3"]) == 130
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "interrupted\n")
    assert_no_child_left()
