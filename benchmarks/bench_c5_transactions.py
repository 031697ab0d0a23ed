"""C5 — Concurrency transparency: ACID under contention (section 5.2).

Claims: transactions mask overlapped execution (serializable outcomes);
the deadlock detector ensures "applications do not hang indefinitely if
transactions suffer locking conflicts".

Series produced:
  * throughput and abort/retry counts as the conflict rate rises
    (transfers concentrated on fewer and fewer accounts),
  * a deadlock-storm workload (every pair locks in opposite order):
    all transactions still complete, with deadlock counts reported,
  * the cost of transactional vs plain invocations (the price of the
    ACID machinery).
Expected shape: retries and deadlocks rise with contention but money is
conserved and every workload terminates.
"""

from repro import EnvironmentConstraints, Signal
from repro.sim.rand import DeterministicRandom
from repro.tx.runner import TxRunner

from benchmarks.workloads import Account, n_node_world

TX = EnvironmentConstraints(concurrency=True)
SCRIPTS = 12


def _build(accounts, seed=3):
    world, capsules, clients = n_node_world(2, seed=seed)
    domain = world.domain("org")
    binder = world.binder_for(clients)
    proxies = []
    for i in range(accounts):
        ref = capsules[i % 2].export(Account(1000), constraints=TX)
        proxies.append(binder.bind(ref))
    return world, domain, proxies


def _transfer(source, target, amount):
    def script(tx):
        state = {}

        def withdraw():
            try:
                source.withdraw(amount)
                state["ok"] = True
            except Signal:
                state["ok"] = False

        yield withdraw
        yield lambda: target.deposit(amount) if state["ok"] else None
    return script


def _workload(accounts, seed=3):
    world, domain, proxies = _build(accounts, seed)
    rng = DeterministicRandom(seed)
    scripts = []
    for _ in range(SCRIPTS):
        i, j = rng.sample(range(accounts), 2)
        scripts.append(_transfer(proxies[i], proxies[j],
                                 rng.randint(1, 50)))
    runner = TxRunner(domain.tx_manager, world.scheduler, rng=rng)
    return world, domain, proxies, runner, scripts


def claim():
    sweep = {}
    for accounts in (12, 6, 3, 2):
        world, domain, proxies, runner, scripts = _workload(accounts)
        start = world.now
        records = runner.run(scripts)
        committed = sum(1 for r in records if r.committed)
        sweep[accounts] = {
            "committed": committed,
            "busy_waits": sum(r.busy_waits for r in records),
            "deadlocks": sum(r.deadlocks for r in records),
            "virtual_ms": world.now - start}
        total = sum(p.balance_of() for p in proxies)
        assert committed == SCRIPTS
        assert total == 1000 * accounts

    world, domain, proxies = _build(2, seed=11)
    a, b = proxies
    storm = []
    for i in range(6):
        if i % 2 == 0:
            storm.append(_transfer(a, b, 1))
        else:
            storm.append(_transfer(b, a, 1))
    runner = TxRunner(domain.tx_manager, world.scheduler,
                      rng=DeterministicRandom(5))
    records = runner.run(storm)
    assert all(r.committed for r in records)

    price = {}
    for label, constraints in (("plain", EnvironmentConstraints()),
                               ("transactional", TX)):
        world, capsules, clients = n_node_world(2)
        ref = capsules[0].export(Account(10 ** 6),
                                 constraints=constraints)
        proxy = world.binder_for(clients).bind(ref)
        domain = world.domain("org")
        start = world.now
        if label == "plain":
            for _ in range(40):
                proxy.deposit(1)
        else:
            for _ in range(40):
                with domain.tx_manager.begin():
                    proxy.deposit(1)
        price[label] = (world.now - start) / 40
    return {"contention_by_accounts": sweep,
            "deadlock_storm": {
                "deadlocks": sum(r.deadlocks for r in records),
                "restarts": runner.restarts},
            "virtual_ms_per_op": price}, {}
