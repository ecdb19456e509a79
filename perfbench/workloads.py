"""The three benchmark workloads: inputs per pass, the measured operation, and
the oracle that checks each verdict.

A workload is a closed loop with one caller: each operation is one membership
query, issued after the previous one returned. A pass is one deck of
operations generated from (seed, pass index); the count of each input class
in a deck is fixed, so passes cost about the same and only the values drawn
inside a class change with the seed. Oracles share no code with the engines.
"""
from __future__ import annotations

import random

import gen


class Workload:
    name = ""
    budget = None  # the EngineBudget every decide() call gets

    def __init__(self, sc, seed: int):
        self.sc = sc
        self.seed = seed

    def setup(self):
        """Preparation before the first timed query; counts in setup_s."""

    def deck(self, index: int) -> list:
        raise NotImplementedError

    def run(self, op):
        """The measured operation; returns the verdict."""
        raise NotImplementedError

    def check(self, op, verdict):
        """True or False from the oracle, or None if this verdict is not
        checked now (it may be kept for finish())."""
        raise NotImplementedError

    def finish(self) -> tuple[int, int]:
        """Check kept verdicts after the timed phase: (checked, wrong)."""
        return 0, 0


class MulcompStream(Workload):
    """Many seeded queries against the fixed primes and evens circuits."""

    name = "mulcomp-stream"

    def __init__(self, sc, seed):
        super().__init__(sc, seed)
        # refuses every query whose vector add decomposition needs more than
        # 10^5 pairs: primes at dim 5 and up (b=210: 40-65 ms at a budget of
        # 10^6, b=2310 refused even at the default) and evens at dim 4 and up
        # (b=30: about 0.9 s; b=105: about 17 s at the default budget)
        self.budget = sc.EngineBudget(max_grid_cells=10**5)
        self.big_primes = None

    def setup(self):
        self.circuits = {
            "primes": self.sc.parse_circuit(gen.PRIMES_TEXT),
            "evens": self.sc.parse_circuit(gen.EVENS_TEXT),
        }

    def deck(self, index):
        if self.big_primes is None:
            self.big_primes = gen.mulcomp_big_primes(self.seed)
        return gen.mulcomp_deck(self.seed, index, self.big_primes)

    def run(self, op):
        circuit, _, b, _ = op
        return self.sc.decide(self.circuits[circuit], b, budget=self.budget).member

    def check(self, op, verdict):
        return verdict == op[3]


class ReductionsLadder(Workload):
    """Fresh reduction instances at growing sizes, one query per circuit."""

    name = "reductions-ladder"

    def __init__(self, sc, seed):
        super().__init__(sc, seed)
        self.budget = sc.DEFAULT_BUDGET
        r = sc.reductions
        self.oracles = {
            "gap": r.gap_has_path,
            "cvp": r.cvp_value,
            "majority": r.majority_accepts,
            "exact-cover": r.exact_cover_solvable,
        }

    def deck(self, index):
        return gen.ladder_deck(self.seed, index, self.sc)

    def run(self, op):
        _, _, _, red, text = op
        c = self.sc.parse_circuit(text)
        return red.answer(self.sc.decide(c, red.query, budget=self.budget).member)

    def check(self, op, verdict):
        name, _, inst, _, _ = op
        return verdict == self.oracles[name](inst)


class RandomCorpus(Workload):
    """A few queries each of many small seeded circuits, decided directly."""

    name = "random-corpus"
    # Checking every verdict would cost about three times the timed phase, so
    # the verdicts of the first CHECK_PASSES passes (a fixed subsample for a
    # given seed, about 2,400 queries) are checked, after the timed phase so
    # the oracles' memory stays out of peak_rss_mb: comp-free ones by
    # brute-force set evaluation, the others by the recursive reference
    # evaluators. A query on which a reference could need more than REF_LIMIT
    # calls (nested sub at dim 3-4, add under nested div; about 1% of them)
    # is not checked: such checks take seconds to minutes, up to 0.5 GB.
    CHECK_PASSES = 6
    REF_LIMIT = 10**7

    def __init__(self, sc, seed):
        super().__init__(sc, seed)
        self.budget = sc.DEFAULT_BUDGET
        self.deferred: list = []

    def deck(self, index):
        return [(*op, index) for op in gen.corpus_deck(self.seed, index, self.sc)]

    def run(self, op):
        return self.sc.decide(op[1], op[2], budget=self.budget).member

    def check(self, op, verdict):
        if op[3] < self.CHECK_PASSES:
            self.deferred.append((op, verdict))
        return None

    def finish(self):
        from refeval import exact_sets_bruteforce, ref_member_scalar, ref_member_vector

        checked = wrong = 0
        sets = (None, None)  # (circuit, its brute-force output set)
        for (frag, c, q, _), verdict in self.deferred:
            if "compfree" in frag:
                if sets[0] is not c:
                    sets = (c, exact_sets_bruteforce(c)[c.output])
                ok = verdict == (q in sets[1])
            elif frag.startswith("vector"):
                if gen.reference_work(c) > self.REF_LIMIT:
                    continue
                ok = verdict == ref_member_vector(c, q)
            else:
                if gen.scalar_reference_work(c, q) > self.REF_LIMIT:
                    continue
                ok = verdict == ref_member_scalar(c, q)
            checked += 1
            wrong += not ok
        self.deferred.clear()
        return checked, wrong


WORKLOADS = {w.name: w for w in (MulcompStream, ReductionsLadder, RandomCorpus)}
