"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on success).
"""

import numpy as np

from helpers import (
    bounded_err,
    chain_bound,
    generic_identity_draws,
    haantjes_oracle,
    nijenhuis_oracle,
    random_operator,
    random_poly_expr,
    rel_err,
    tower_bound,
)
from torsionlab.algebra import (
    PolySpec,
    TriPoly,
    bezout_identity_residual,
    check_algebra,
    check_polynomial_preservation,
    poly_of_operator,
    rep_apply,
)
from torsionlab.charts import BlockPartition, detect_blocks, integrate_exact_one_form, pushforward_many
from torsionlab.expr import (
    Chart,
    SampleDomain,
    Var,
    const,
    diff,
    eval_at,
    eval_many,
    sample_points,
)
from torsionlab.fields import (
    OperatorField,
    PowerOperator,
    VectorFieldExpr,
    eigenchain_formula_rhs,
    identity_operator,
    is_vanishing,
    level_up,
    nijenhuis_at,
    torsion_at,
    torsion_many,
)
from torsionlab.spectral import max_principal_angle, minimal_poly_degree_at, spectrum_at

SEED = 20220515


def verdict(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def criterion_domain(dim: int) -> SampleDomain:
    return SampleDomain(box=((1.0, 2.0),) * dim, guards=(Var(0),),
                        guard_eps=1e-3, seed=SEED)


# ---------------------------------------------------------------------------

def test_criterion_01_lta_torsion_levels(lta):
    dom = criterion_domain(5)
    pts = sample_points(dom, 200)
    worst3, worst2 = 0.0, np.inf
    for op in lta.operators.values():
        rep = is_vanishing(op, 3, dom, 200, 1e-8, pts=pts)
        worst3 = max(worst3, rep.max_residual)
        worst2 = min(worst2, rep.lower[1].max_residual)
    verdict(1, worst3 <= 1e-8 and worst2 >= 1e-3,
            f"L1..L3 over [1,2]^5: tau^3 residual {worst3:.2e} <= 1e-8, "
            f"tau^2 residual {worst2:.2e} >= 1e-3 (200 pts)")


def test_criterion_02_lfa1_torsion_levels(lfa1):
    dom = criterion_domain(7)
    pts = sample_points(dom, 200)
    worst4, worst3 = 0.0, np.inf
    for op in lfa1.operators.values():
        rep = is_vanishing(op, 4, dom, 200, 1e-8, pts=pts)
        worst4 = max(worst4, rep.max_residual)
        worst3 = min(worst3, rep.lower[2].max_residual)
    verdict(2, worst4 <= 1e-8 and worst3 >= 1e-3,
            f"K1..K3 over [1,2]^7: tau^4 residual {worst4:.2e} <= 1e-8, "
            f"tau^3 residual {worst3:.2e} >= 1e-3 (200 pts)")


def test_criterion_03_spectra(lta, lfa1):
    ok = True
    notes = []
    for man, degree in ((lta, 5), (lfa1, 7)):
        pts = sample_points(man.domain, 20)
        golden = man.spectrum
        worst_angle = 0.0
        for name, op in man.operators.items():
            ok &= minimal_poly_degree_at(op, pts[0], man.tolerances["cluster"]) == degree
            for p in pts:
                spec = spectrum_at(op, p, man.tolerances["cluster"], man.tolerances["rank"])
                for k, lam_expr in enumerate(golden.eigenvalues[name]):
                    lam = eval_at(lam_expr, p)
                    idx = int(np.argmin([abs(v - lam) for v in spec.eigenvalues]))
                    ok &= abs(spec.eigenvalues[idx] - lam) <= 1e-6
                    ok &= spec.riesz[idx] == golden.riesz[k]
                    ok &= spec.ranks[idx] == golden.ranks[k]
                    printed = np.stack([f.at(p) for f in golden.distributions[k]], axis=1)
                    angle = max_principal_angle(spec.eig_bases[idx], printed)
                    cov = np.stack([np.array([eval_at(c, p) for c in w.components])
                                    for w in golden.annihilators[k]], axis=1)
                    angle = max(angle, max_principal_angle(spec.annihilators[idx].T, cov))
                    worst_angle = max(worst_angle, angle)
                    ok &= angle <= 1e-6
        notes.append(f"dim {man.chart.dim}: minpoly {degree}, worst angle {worst_angle:.2e}")
    verdict(3, ok, "; ".join(notes) + " (eigenvalues, riesz, ranks, spans at 20 pts)")


def test_criterion_04_block_diagonalization(lta, lfa1):
    ok = True
    notes = []
    for man, hint in ((lta, (1, 1, 1, 2)), (lfa1, (1, 1, 1, 1, 3))):
        tol = man.tolerances["block"]
        chart = man.charts["y"]
        pts = sample_points(man.domain, 200)
        ys = chart.forward_many(pts)
        n = man.chart.dim
        worst_entry, worst_off = 0.0, 0.0
        all_mats = []
        for name, op in man.operators.items():
            mats = pushforward_many(op, chart, pts)
            all_mats.extend(mats)
            gold = man.pushforward_golden["y"][name]
            expected = np.empty_like(mats)
            for i in range(n):
                for j in range(n):
                    expected[:, i, j] = eval_many(gold[i][j], ys)
            worst_entry = max(worst_entry, rel_err(mats, expected))
            _, off = detect_blocks(list(mats), BlockPartition(hint), tol)
            worst_off = max(worst_off, off)
        detected, _ = detect_blocks(all_mats, None, tol)
        ok &= detected.sizes == hint
        ok &= worst_entry <= tol and worst_off <= tol
        notes.append(f"dim {n}: entry err {worst_entry:.2e}, off-block {worst_off:.2e}, "
                     f"partition {'|'.join(map(str, detected.sizes))}")
    verdict(4, ok, "; ".join(notes) + " (200 pts each)")


def test_criterion_05_affine_scaling():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for trial in range(25):
        dim = 3 + trial % 2
        chart = Chart(dim)
        a = random_operator(chart, rng)
        f, g = random_poly_expr(chart, rng), random_poly_expr(chart, rng)
        combo = poly_of_operator(a, PolySpec((f, g)))
        pts = rng.uniform(0.5, 1.5, size=(5, dim))
        t_base = torsion_many(a, 2, pts)
        t_combo = torsion_many(combo, 2, pts)
        g4 = eval_many(g, pts) ** 4
        worst = max(worst, rel_err(t_combo, g4[:, None, None, None] * t_base))
    verdict(5, worst <= 1e-9,
            f"level-2 torsion of f I + g A = g^4 level-2 of A: worst rel err "
            f"{worst:.2e} (25 random triples, dim 3-4)")


def test_criterion_06_sigma_raises_level():
    rng = np.random.default_rng(1006)
    sigma = TriPoly.sigma()
    worst = 0.0
    for trial in range(25):
        dim = 2 + trial % 4
        chart = Chart(dim)
        a = random_operator(chart, rng)
        p = rng.uniform(0.5, 1.5, size=dim)
        ap = a.at(p)
        vals, derivs = a.jet_many(p[None])
        for m in (1, 2, 3, 4):
            lhs = rep_apply(sigma, torsion_at(a, m, p), ap).components
            rhs = torsion_at(a, m + 1, p).components
            # relative to level m + 1's bound: it vanishes in dim 2
            worst = max(worst, bounded_err(lhs, rhs, tower_bound(vals, derivs, m + 1)[0]))
    verdict(6, worst <= 1e-9,
            f"R_sigma tau^(m) = tau^(m+1), m=1..4: worst rel err {worst:.2e} "
            f"(25 random operators, dim 2-5)")


def test_criterion_07_polynomial_preservation(lta, lfa1):
    rng = np.random.default_rng(1007)
    # (a) the quotient-representation identity on generic operators, m=2,3
    worst_identity = 0.0
    for a, p, pts in generic_identity_draws(rng):  # deg P <= 3
        for m in (2, 3):
            worst_identity = max(worst_identity, bezout_identity_residual(a, p, m, pts))
    ok = worst_identity <= 1e-9

    # (b) variable-coefficient polynomials preserve the fixtures' vanishing level
    kept = True
    for man, op_name, level, n_pts in ((lta, "L1", 3, 100), (lfa1, "K1", 4, 60)):
        chart = man.chart
        a = man.operators[op_name]
        for _ in range(3):
            p = PolySpec(tuple(random_poly_expr(chart, rng) for _ in range(3)))
            rep = check_polynomial_preservation(a, p, level, man.domain, n_pts, 1e-8)
            kept &= rep.passed

    # (c) explicit counterexample at m=1: variable coefficients break the
    # Nijenhuis level while the next level survives
    ch2 = Chart(2)
    diag = OperatorField(ch2, ((Var(0), const(0)), (const(0), Var(1))))
    dom = SampleDomain(box=((0.5, 1.5), (0.5, 1.5)), seed=SEED)
    scaled = poly_of_operator(diag, PolySpec((const(0), Var(1))))
    base_ok = is_vanishing(diag, 1, dom, 50, 1e-8).vanishing
    broken = is_vanishing(scaled, 1, dom, 50, 1e-8)
    survived = is_vanishing(scaled, 2, dom, 50, 1e-8).vanishing
    counterexample = base_ok and not broken.vanishing and broken.max_residual > 1e-3 and survived

    verdict(7, ok and kept and counterexample,
            f"quotient identity worst {worst_identity:.2e} (m=2,3, N<=3); fixture "
            f"vanishing preserved at levels 3/4: {kept}; m=1 counterexample "
            f"residual {broken.max_residual:.2e}")


def test_criterion_08_closure_laws(lta, lfa1):
    l1 = lta.operators["L1"]
    basis5 = [identity_operator(lta.chart)] + [PowerOperator(l1, k) for k in range(1, 5)]
    rep5 = check_algebra(basis5, 3, lta.domain, 200, 50, 1e-8)
    k1 = lfa1.operators["K1"]
    basis7 = [identity_operator(lfa1.chart)] + [PowerOperator(k1, k) for k in range(1, 7)]
    rep7 = check_algebra(basis7, 4, lfa1.domain, 200, 50, 1e-8)
    verdict(8, rep5.passed and rep7.passed,
            f"{{I, L1..L1^4}} level 3: commute/module/ring = "
            f"{rep5.commute_ok}/{rep5.module_closed}/{rep5.ring_closed} "
            f"(worst {max(rep5.module_worst, rep5.ring_worst):.2e}); "
            f"{{I, K1..K1^6}} level 4: "
            f"{rep7.commute_ok}/{rep7.module_closed}/{rep7.ring_closed} "
            f"(worst {max(rep7.module_worst, rep7.ring_worst):.2e}); 50 combos each")


def test_criterion_09_definition_oracles():
    rng = np.random.default_rng(1009)
    worst_abs = 0.0
    for trial in range(25):
        dim = 2 + trial % 3
        chart = Chart(dim)
        a = random_operator(chart, rng)
        p = rng.uniform(0.5, 1.5, size=dim)
        got = nijenhuis_at(a, p).components
        worst_abs = max(worst_abs, float(np.max(np.abs(got - nijenhuis_oracle(a, p)))))
    worst_h = 0.0
    for _ in range(5):
        a = random_operator(Chart(3), rng)
        p = rng.uniform(0.5, 1.5, size=3)
        lvl2 = level_up(nijenhuis_at(a, p), a.at(p)).components
        worst_h = max(worst_h, rel_err(lvl2, haantjes_oracle(a, p)))
    verdict(9, worst_abs <= 1e-10 and worst_h <= 1e-10,
            f"index formula vs definition oracle: worst abs {worst_abs:.2e} "
            f"(25 ops, dim<=4); level-up vs direct level-2 oracle: worst rel {worst_h:.2e}")


def test_criterion_10_eigenchain_formula(lta):
    worst = 0.0
    # 2-dim Jordan block with eigenvalue field x1
    ch2 = Chart(2)
    jordan = OperatorField(ch2, ((Var(0), const(1)), (const(0), Var(0))))
    e1 = VectorFieldExpr(ch2, (const(1), const(0)))
    e2 = VectorFieldExpr(ch2, (const(0), const(1)))
    for m in (2, 3):
        p = (1.4, 0.8)
        rhs = eigenchain_formula_rhs(jordan, (Var(0), [e1, e2]), (Var(0), [e1]), m, p)
        t = torsion_at(jordan, m, p)
        contraction = np.einsum("ijk,j,k->i", t.components, e2.at(p), e1.at(p))
        worst = max(worst, bounded_err(rhs, contraction, chain_bound(jordan, m, p, e2, e1)))
    # the 5-dim family's rank-2 chain
    spec = lta.chains["D4"]
    pts = sample_points(lta.domain, 5)
    for name in ("L1", "L2", "L3"):
        a = lta.operators[name]
        mu = spec.eigenvalue[name]
        f1, f2 = spec.fields
        for p in pts:
            for m in (2, 3):
                rhs = eigenchain_formula_rhs(a, (mu, [f1, f2]), (mu, [f1]), m, p)
                t = torsion_at(a, m, p)
                contraction = np.einsum("ijk,j,k->i", t.components, f2.at(p), f1.at(p))
                # level 3 vanishes: both sides are roundoff of the chain's bound
                worst = max(worst, bounded_err(rhs, contraction, chain_bound(a, m, p, f2, f1)))
    verdict(10, worst <= 1e-8,
            f"chain formula vs torsion contraction (Jordan block + rank-2 chain, "
            f"m=2,3): worst rel err {worst:.2e}")


def test_criterion_11_one_form_integration(lta, lfa1):
    ok = True
    notes = []
    for man in (lta, lfa1):
        chart = man.charts["y"]
        pts = sample_points(man.domain, 10)
        potentials = []
        worst_d = 0.0
        for name in sorted(man.annihilators):
            for w in man.annihilators[name]:
                f = integrate_exact_one_form(w)
                potentials.append(f)
                for i in range(man.chart.dim):
                    delta = eval_many(diff(f, i), pts) - eval_many(w.components[i], pts)
                    worst_d = max(worst_d, float(np.max(np.abs(delta))))
        ok &= worst_d <= 1e-10
        # recovered potentials match the separating coordinates up to
        # scale and an additive constant
        worst_fit = 0.0
        for f, y in zip(potentials, chart.forward):
            fv = eval_many(f, pts)
            yv = eval_many(y, pts)
            design = np.stack([yv, np.ones_like(yv)], axis=1)
            sol, *_ = np.linalg.lstsq(design, fv, rcond=None)
            ok &= abs(sol[0]) > 1e-8  # nonzero scale
            worst_fit = max(worst_fit, float(np.max(np.abs(fv - design @ sol))))
        ok &= worst_fit <= 1e-9
        # the integration basis spans the printed annihilator generators
        worst_angle = 0.0
        for p in pts[:3]:
            for i, basis in enumerate(man.spectrum.annihilators):
                exact = man.annihilators[sorted(man.annihilators)[i]]
                mat_a = np.stack([[eval_at(c, p) for c in w.components] for w in basis], axis=1)
                mat_b = np.stack([[eval_at(c, p) for c in w.components] for w in exact], axis=1)
                worst_angle = max(worst_angle, max_principal_angle(mat_a, mat_b))
        ok &= worst_angle <= 1e-6
        notes.append(f"dim {man.chart.dim}: dF-w {worst_d:.2e}, coordinate fit "
                     f"{worst_fit:.2e}, span angle {worst_angle:.2e}")
    verdict(11, ok, "; ".join(notes))
