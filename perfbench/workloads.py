"""The three benchmark workloads.

Each workload is built by ``setup(folioid, seed, size)`` and returns an
object with:

* ``run()``: one pass, the timed region; returns the pass output.
* ``check(output)``: ``[(operation, ok)]`` for that pass: one entry per
  pipeline check or finite step, one per output check.
* ``comparable(output)``: the output with wall times removed, so passes can
  be compared with each other and traced passes with untraced ones.
* ``check_times(output)``: wall time of each pipeline entry, by name.
* ``final_checks()``: ``[(operation, ok)]`` run once per run, untimed.

The expected values come from closed forms computed here with numpy or
plain Python, never from a saved copy of an earlier output.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

SIZES = {
    "full": {"pair_samples": 4, "pair_mul_batch": 12, "dirac_samples": 100,
             "pair_objects": 15, "block": 3, "bundle_objects": 7},
    "smoke": {"pair_samples": 2, "pair_mul_batch": 2, "dirac_samples": 8,
              "pair_objects": 6, "block": 3, "bundle_objects": 3},
}

DIRAC_PIPELINE = ["validate_groupoid", "check_multiplicative", "check_lagrangian",
                  "check_integrable", "check_multiplicative_dirac", "pushforward_dirac",
                  "is_forward_dirac"]

CONFIG_DIR = Path(__file__).resolve().parent.parent / "src" / "folioid" / "configs"

CLOSE = 1e-6  # tolerance of the benchmark's own closed-form comparisons


def _load_config(name: str) -> dict:
    with open(CONFIG_DIR / name) as fh:
        return json.load(fh)


def scrub_wall_times(value):
    """Copy of a report with every ``wall_time_s`` field removed."""
    if isinstance(value, dict):
        return {k: scrub_wall_times(v) for k, v in value.items() if k != "wall_time_s"}
    if isinstance(value, list):
        return [scrub_wall_times(v) for v in value]
    return value


def _entry_checks(report: dict, pipeline: list) -> list:
    ops = [(f"entry:{name}", bool(entry["pass"]))
           for name, entry in zip(pipeline, report["results"])]
    ops += [(f"entry:{name}", False) for name in pipeline[len(report["results"]):]]
    return ops


def _entry(report: dict, pipeline: list, name: str) -> dict:
    return report["results"][pipeline.index(name)]


class _SmoothWorkload:
    def __init__(self, folioid, data: dict):
        self.cli = folioid.cli
        self.cfg = self.cli.ScenarioConfig.from_dict(data)
        self.pipeline = list(self.cfg.pipeline)
        self.scenario = folioid.scenarios.build_scenario(self.cfg.family, self.cfg.params)

    def run(self) -> dict:
        return self.cli.run_pipeline(self.cfg)

    def comparable(self, report: dict) -> dict:
        return scrub_wall_times(report)

    def check_times(self, report: dict) -> dict:
        """Wall time of each pipeline entry, keyed by its pipeline name."""
        return {name: entry["wall_time_s"]
                for name, entry in zip(self.pipeline, report["results"])}


class PairLeafspace(_SmoothWorkload):
    """``ex_basegp``: the pair groupoid on R^2, D spanned by a seeded direction.

    The pipeline keeps the bundled config's sampling seed: the walk flow
    times it draws set the RK4 step count of a pass, so a per-run sampling
    seed would spread the work per pass across seeds.
    """

    def __init__(self, folioid, seed: int, size: dict):
        rng = np.random.default_rng([seed, 1])
        angle = float(rng.uniform(0.0, math.pi))
        data = _load_config("ex_basegp.json")
        data["params"]["d_basis"] = [[math.cos(angle), math.sin(angle)]]
        data["numeric"]["samples"] = size["pair_samples"]
        self.d_basis = np.array(data["params"]["d_basis"], dtype=float)
        self.m = int(data["params"]["m_dim"])
        self.seed = seed
        self.mul_batch = size["pair_mul_batch"]
        self.leafspace = folioid.leafspace
        super().__init__(folioid, data)

    def check(self, report: dict) -> list:
        ops = _entry_checks(report, self.pipeline)
        r = int(np.linalg.matrix_rank(self.d_basis))
        ranks = _entry(report, self.pipeline, "check_rank_structure")["details"]["ranks"]
        want = {"S": 2 * r, "S_cap_TP": r, "S_t": r, "S_s": r, "S_cap_AG": r}
        ops.append(("ranks_2r_r_r_r_r", ranks == want))
        dims = _entry(report, self.pipeline, "validate_quotient_groupoid")["details"]
        ops.append(("label_dims", dims["object_label_dim"] == self.m - r
                    and dims["arrow_label_dim"] == 2 * (self.m - r)))
        return ops

    def final_checks(self) -> list:
        """quotient_mul against the pair-groupoid product on an orthonormal
        complement C of D: [g][h] has labels (C^T t(g), C^T s(h))."""
        ls = self.leafspace
        s, m = self.scenario, self.m
        _, sing, vh = np.linalg.svd(self.d_basis)
        r = int(np.sum(sing > 1e-12))
        comp = vh[r:].T                                   # orthonormal complement of D
        chart_comp = s.chart.lambda_p.jacobian(np.zeros(m)).T
        orient = comp.T @ chart_comp                      # chart coordinates -> ours
        ops = [("label_chart_orthonormal",
                bool(np.abs(orient.T @ orient - np.eye(m - r)).max() <= CLOSE))]
        rng = np.random.default_rng([self.seed, 2])
        worst = 0.0
        for _ in range(self.mul_batch):
            g, h = s.groupoid.composable_pair(rng)
            got = ls.quotient_mul(s.groupoid, s.dist, s.chart, ls.quotient_arrow(s.chart, g),
                                  ls.quotient_arrow(s.chart, h), self.cfg.numeric).label
            got_ours = np.concatenate([orient @ got[:m - r], orient @ got[m - r:]])
            want = np.concatenate([comp.T @ g[:m], comp.T @ h[m:]])
            worst = max(worst, float(np.abs(got_ours - want).max()))
        ops.append(("quotient_mul_closed_form", worst <= CLOSE))
        return ops


class DiracPushforward(_SmoothWorkload):
    """``presymplectic_pair_dirac`` with a seeded rank-2 form on R^3."""

    def __init__(self, folioid, seed: int, size: dict):
        rng = np.random.default_rng([seed, 1])
        frame, _ = np.linalg.qr(rng.standard_normal((3, 2)))
        half = float(rng.uniform(0.5, 2.0)) * np.outer(frame[:, 0], frame[:, 1])
        self.omega = half - half.T                        # exactly antisymmetric
        data = _load_config("presymplectic_dirac.json")
        data["params"]["omega"] = self.omega.tolist()
        data["numeric"].update(samples=size["dirac_samples"], seed=seed)
        data["pipeline"] = list(DIRAC_PIPELINE)
        super().__init__(folioid, data)

    def _label_frames(self):
        """The kernel K and an orthonormal complement C of omega from numpy's
        SVD, the chart's label frame L, and O = C^T L (chart labels -> ours)."""
        m = self.omega.shape[0]
        _, sing, vh = np.linalg.svd(self.omega)
        rank = int(np.sum(sing > 1e-12))
        comp, kernel = vh[:rank].T, vh[rank:].T
        chart = self.scenario.chart.lambda_p.jacobian(np.zeros(m)).T
        return kernel, comp, chart, comp.T @ chart

    def expected_bivector(self) -> np.ndarray:
        """Bivector of the pushforward in the chart's label coordinates.

        In labels y = C^T x the reduced form is w = C^T omega C on each slot;
        the target slot carries its inverse and the source slot, whose graph
        enters the difference with a minus sign, the negative inverse.  The
        chart's labels are O^T y, so the bivector there is O^T Pi O.
        """
        _, comp, _, orient = self._label_frames()
        reduced_inv = np.linalg.inv(comp.T @ self.omega @ comp)
        k = reduced_inv.shape[0]
        ours = np.zeros((2 * k, 2 * k))
        ours[:k, :k] = reduced_inv
        ours[k:, k:] = -reduced_inv
        both = np.kron(np.eye(2), orient)
        return both.T @ ours @ both

    def check(self, report: dict) -> list:
        ops = _entry_checks(report, self.pipeline)
        push = _entry(report, self.pipeline, "pushforward_dirac")["details"]
        want = self.expected_bivector()
        worst = max(float(np.abs(np.array(pi) - want).max())
                    for _, pi in push["poisson_matrix_at_samples"])
        ops.append(("poisson_matrix_from_reduced_form", worst <= CLOSE))
        kernel_dim = self.omega.shape[0] - int(np.linalg.matrix_rank(self.omega))
        rank = _entry(report, self.pipeline,
                      "check_multiplicative_dirac")["details"]["characteristic_rank"]
        ops.append(("characteristic_rank_2_dim_ker", rank == 2 * kernel_dim))
        ops.append(("jacobi_residual_within_tol",
                    push["jacobi_residual"] <= self.cfg.numeric.tol_jac_poisson))
        return ops

    def final_checks(self) -> list:
        """The chart's label frame L is an orthonormal complement of ker omega:
        L^T K = 0 and L^T L = I, with K from numpy."""
        kernel, _, chart, _ = self._label_frames()
        k = chart.shape[1]
        return [("label_chart_orthonormal_complement_of_kernel",
                 bool(np.abs(chart.T @ kernel).max() <= CLOSE
                      and np.abs(chart.T @ chart - np.eye(k)).max() <= CLOSE))]


# ---------------------------------------------------------------------------
# finite quotients

def klein_bundle(fin, n_objects: int):
    """Disjoint union of n copies of Z/2 x Z/2 (arrow p*4 + x, product by xor)."""
    objects = tuple(range(n_objects))
    arrows = tuple(range(4 * n_objects))
    src = {a: a // 4 for a in arrows}
    return fin.FiniteGroupoid(
        objects, arrows, src, dict(src), {p: 4 * p for p in objects},
        {a: a for a in arrows},
        {(4 * p + x, 4 * p + y): 4 * p + (x ^ y)
         for p in objects for x in range(4) for y in range(4)})


def _shuffled(ids, rng: random.Random) -> dict:
    new = list(range(len(ids)))
    rng.shuffle(new)
    return dict(zip(ids, new))


def relabel(fin, g, om: dict, am: dict):
    """The same groupoid with objects renamed by ``om`` and arrows by ``am``."""
    return fin.FiniteGroupoid(
        tuple(sorted(om.values())), tuple(sorted(am.values())),
        {am[a]: om[p] for a, p in g.src.items()},
        {am[a]: om[p] for a, p in g.tgt.items()},
        {om[p]: am[a] for p, a in g.unit.items()},
        {am[a]: am[b] for a, b in g.inv.items()},
        {(am[a], am[b]): am[c] for (a, b), c in g.mul.items()})


def bundle_ids(g, rng: random.Random):
    """Seeded object ids for a bundle of order-4 groups; arrow p*4 + x
    becomes om[p]*4 + x, so arrow ids stay grouped by object.

    Ids are not shuffled across objects: find_isomorphism tries arrows in
    id order, and on shuffled ids its search for the Z/4 against the
    Z/2 x Z/2 bundle grows far beyond the run time (see CHANGES.md).
    """
    om = _shuffled(g.objects, rng)
    return om, {a: om[a // 4] * 4 + a % 4 for a in g.arrows}


def _relabel_instance(fin, g, normal, nss, om, am):
    theta = {((om[p], om[q]), am[a]): am[b] for ((p, q), a), b in nss.theta.items()}
    h = relabel(fin, g, om, am)
    return (h, frozenset(am[a] for a in normal),
            fin.make_nss(h, [am[a] for a in nss.n_arrows],
                         [(om[p], om[q]) for p, q in nss.relation], theta))


def is_isomorphism(g1, g2, found) -> bool:
    """Independent check that ``found = (object map, arrow map)`` is an
    isomorphism: bijective, and preserving source, target, units and products."""
    if found is None:
        return False
    om, am = found
    if sorted(om) != sorted(g1.objects) or sorted(om.values()) != sorted(g2.objects):
        return False
    if sorted(am) != sorted(g1.arrows) or sorted(am.values()) != sorted(g2.arrows):
        return False
    if any(om[g1.src[a]] != g2.src[am[a]] or om[g1.tgt[a]] != g2.tgt[am[a]]
           for a in g1.arrows):
        return False
    if any(am[g1.unit[p]] != g2.unit[om[p]] for p in g1.objects):
        return False
    return len(g1.mul) == len(g2.mul) and all(
        g2.mul.get((am[a], am[b])) == am[c] for (a, b), c in g1.mul.items())


def non_involutions(g) -> int:
    """Arrows x with x * x defined and different from the unit."""
    return sum(1 for a in g.arrows
               if g.src[a] == g.tgt[a] and g.mul[(a, a)] != g.unit[g.src[a]])


class FiniteQuotients:
    """Pair groupoid with a block partition, the Z/4 bundle with {0, 2}, and
    the non-isomorphic Z/4 and Z/2 x Z/2 bundles, all with seeded ids."""

    def __init__(self, folioid, seed: int, size: dict):
        fin = self.fin = folioid.fingroupoid
        rng = random.Random(seed)
        n, b, m = size["pair_objects"], size["block"], size["bundle_objects"]
        self.blocks, self.m = n // b, m
        blocks = [list(range(i, i + b)) for i in range(0, n, b)]
        pair = fin.pair_groupoid(n)
        self.pair = _relabel_instance(fin, pair, fin.pair_block_subgroupoid(n, blocks),
                                      fin.pair_block_nss(n, blocks),
                                      _shuffled(pair.objects, rng), _shuffled(pair.arrows, rng))
        bundle = fin.group_bundle_groupoid(4, m)
        self.bundle = _relabel_instance(fin, bundle,
                                        frozenset(p * 4 + x for p in range(m) for x in (0, 2)),
                                        fin.group_bundle_nss(4, m, [0, 2]),
                                        *bundle_ids(bundle, rng))
        self.cyclic = relabel(fin, bundle, *bundle_ids(bundle, rng))
        klein = klein_bundle(fin, m)
        self.klein = relabel(fin, klein, *bundle_ids(klein, rng))

    def _instance(self, g, normal, nss) -> dict:
        fin = self.fin
        out = {"groupoid": fin.validate_groupoid(g).to_json(),
               "nss": fin.validate_nss(g, nss).to_json(),
               "q_normal": fin.quotient_by_normal_subgroupoid(g, normal),
               "q_system": fin.quotient_by_nss(g, nss)[0]}
        out["iso"] = fin.find_isomorphism(out["q_normal"], out["q_system"])
        return out

    def run(self) -> dict:
        return {"pair": self._instance(*self.pair),
                "bundle": self._instance(*self.bundle),
                "cyclic_vs_klein": self.fin.find_isomorphism(self.cyclic, self.klein)}

    def comparable(self, out: dict) -> dict:
        fin = self.fin

        def plain(inst):
            return {"groupoid": inst["groupoid"], "nss": inst["nss"],
                    "q_normal": fin.groupoid_to_json(inst["q_normal"]),
                    "q_system": fin.groupoid_to_json(inst["q_system"]),
                    "iso": None if inst["iso"] is None else
                    [sorted(inst["iso"][0].items()), sorted(inst["iso"][1].items())]}

        return {"pair": plain(out["pair"]), "bundle": plain(out["bundle"]),
                "cyclic_vs_klein": out["cyclic_vs_klein"]}

    def check_times(self, out: dict) -> dict:
        return {}  # no pipeline entries

    def check(self, out: dict) -> list:
        def sizes(q):
            return len(q.objects), len(q.arrows)

        pair, bundle, k, m = out["pair"], out["bundle"], self.blocks, self.m
        return [
            ("pair:validate_groupoid", pair["groupoid"]["valid"]),
            ("pair:validate_nss", pair["nss"]["valid"]),
            ("pair:quotient_by_normal_subgroupoid", sizes(pair["q_normal"]) == (k, k * k)),
            ("pair:quotient_by_nss", sizes(pair["q_system"]) == (k, k * k)),
            ("pair:find_isomorphism",
             is_isomorphism(pair["q_normal"], pair["q_system"], pair["iso"])),
            ("bundle:validate_groupoid", bundle["groupoid"]["valid"]),
            ("bundle:validate_nss", bundle["nss"]["valid"]),
            ("bundle:quotient_by_normal_subgroupoid", sizes(bundle["q_normal"]) == (m, 2 * m)),
            ("bundle:quotient_by_nss", sizes(bundle["q_system"]) == (1, 2)),
            ("bundle:find_isomorphism", bundle["iso"] is None),
            ("cyclic_vs_klein:find_isomorphism", out["cyclic_vs_klein"] is None),
            ("cyclic_vs_klein:non_involutions",
             (non_involutions(self.cyclic), non_involutions(self.klein)) == (2 * m, 0)),
        ]

    def final_checks(self) -> list:
        return [("klein_bundle_is_groupoid", self.fin.validate_groupoid(self.klein).valid)]


WORKLOADS = {
    "pair_leafspace": PairLeafspace,
    "dirac_pushforward": DiracPushforward,
    "finite_quotients": FiniteQuotients,
}


def setup(folioid, name: str, seed: int, size: str):
    return WORKLOADS[name](folioid, seed, SIZES[size])
