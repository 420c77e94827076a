"""Surface census for the serving slice: every public service name has a customer.

One row per name in ``repro.runtime.service.__all__``, per keyword of
``InferenceService`` and per ``ClientSpec`` field.  A row is
``"<file>:<function> — why"``: the first non-test caller that needs the
name, or — where no such caller exists — the test that pins the bug the
name was needed to catch.  New service surface adds its row here in the
change that adds it; a name whose last customer goes, goes with it.
"""

import dataclasses
import inspect
import re
from pathlib import Path

from repro.runtime import service
from repro.runtime.service import ClientSpec, InferenceService

REPO = Path(__file__).resolve().parents[1]

CUSTOMERS = {
    # repro.runtime.service.__all__
    "ACCEPTED": "benchmarks/ledger/phases.py:submit_backlog — refuses a backlog "
                "submit whose verdict is not ACCEPTED (`Admission.accepted`)",
    "DEFERRED": "benchmarks/ledger/phases.py:serve_window — the serve summary's "
                "`deferred` count",
    "SHED": "benchmarks/ledger/phases.py:serve_window — the serve summary's `shed` count",
    "Admission": "src/repro/testbed/producers.py:replay_wall — one verdict per arrival",
    "ClientSpec": "benchmarks/ledger/workloads.py:client_specs — one per ledger client",
    "InferenceService": "benchmarks/ledger/phases.py:build_service — the served stack",
    "ServiceResult": "benchmarks/ledger/phases.py:drain_once — `seq`, `status` and "
                     "`result` of every served request",
    "ServiceStats": "benchmarks/ledger/phases.py:serve_window — the serve summary",
    "VirtualClock": "tests/test_serving.py:test_max_items_takes_the_globally_oldest_first "
                    "— bug: `take_results(max_items=)` handed out a newer result first; "
                    "only a clock that moves when told makes admission replayable",
    # InferenceService keywords
    "backend": "benchmarks/ledger/phases.py:build_service",
    "clients": "benchmarks/ledger/phases.py:build_service",
    "chunk_size": "benchmarks/ledger/phases.py:build_service — the workload's chunk",
    "clock": "benchmarks/ledger/loadgen.py:run_open_loop — schedules on `service.clock`",
    "own_backend": "benchmarks/ledger/phases.py:build_service — one backend, many services",
    # ClientSpec fields
    "name": "benchmarks/ledger/workloads.py:client_specs",
    "app": "benchmarks/ledger/workloads.py:client_specs — multiapp_c512's per-app clients",
    "queue_depth": "benchmarks/ledger/workloads.py:client_specs",
    "rate": "examples/quickstart.py:main — the rate-limited `scratch` tenant",
    "burst": "examples/quickstart.py:main — the rate-limited `scratch` tenant",
    "result_depth": "benchmarks/ledger/workloads.py:client_specs — buffers never drop",
}


def test_the_census_names_exactly_the_service_surface():
    keywords = set(inspect.signature(InferenceService.__init__).parameters) - {"self"}
    fields = {field.name for field in dataclasses.fields(ClientSpec)}
    assert CUSTOMERS.keys() == set(service.__all__) | keywords | fields


def test_every_customer_exists():
    for name, customer in CUSTOMERS.items():
        path, function = re.match(r"([\w/.]+\.py):(\w+)", customer).groups()
        assert f"def {function}(" in (REPO / path).read_text(), name
