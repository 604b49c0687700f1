"""The three benchmark workloads: seeded inputs, one timed call per point,
and the checks on what the calls returned.

A workload's inputs are fixed by the seed when it is built, and every round
of the timed phase runs the same points in the same order. ``run_point`` is
the only code inside the timed region. After it, ``parse`` turns the raw
outputs into results, ``check`` lists failure messages per point, and
``corruptions`` gives deliberately broken copies of the results that the
named check must reject.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math

import numpy as np

import checks

PI = math.pi
WORKLOADS = ("certify", "sweep", "tomography")


def _uniform(seed, name):
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return lambda lo, hi: float(rng.uniform(lo, hi))


class Certify:
    """Full-statistics bounds on fixed seeded behaviors at the largest sizes
    that finish in seconds (level 3 on 2x2, level 2 on 3x3 and 2x3)."""

    name = "certify"

    def __init__(self, seed, bellrand):
        self.guessprob = bellrand.guessprob
        self.seed = seed
        u = _uniform(seed, self.name)
        self.points = []

        def add(label, level, v, theta, alice, bob, gen=(1, 1), **flags):
            probs = checks.born_behavior(
                checks.family_state(v, theta),
                [checks.planar(a) for a in alice],
                [checks.planar(b) for b in bob],
            )
            self.points.append(dict(
                label=label, level=level, mx=len(alice), my=len(bob),
                xstar=gen[0], ystar=gen[1], theta=theta, probs=probs,
                behavior=bellrand.qstate.Behavior(len(alice), len(bob), probs),
                **flags,
            ))

        def near(x, width):
            return x + u(-width, width)

        def jitter(angles):
            return [near(a, 0.005) for a in angles]

        def chsh_settings(theta):
            chi = math.atan(math.sin(2.0 * theta))
            return jitter([0.0, PI / 2]), jitter([chi, -chi])

        v, theta = near(0.95, 0.002), near(PI / 6, 0.005)
        alice, bob = chsh_settings(theta)
        add("noisy-2x2-L3", 3, v, theta, alice, bob)
        add("noisy-2x2-L2", 2, v, theta, alice, bob)
        theta = near(PI / 8, 0.005)
        alice, bob = chsh_settings(theta)
        add("pure-2x2-L2", 2, 1.0, theta, alice, bob, pure=True)
        add("noisy-3x3-L2", 2, near(0.95, 0.002), near(PI / 5, 0.005),
            jitter([0.0, PI / 2, PI / 4]), jitter([PI / 4, 3 * PI / 4, 0.0]))
        # two noisy 2x3 behaviors at every generation pair: twelve bounds of
        # one size, so the median point time is taken within a group of equals
        for name, v0, t0 in (("a", 0.98, PI / 4 - 0.02), ("b", 0.96, PI / 6)):
            v, theta = near(v0, 0.002), near(t0, 0.005)
            alice, bob = jitter([0.0, PI / 2]), jitter([PI / 4, 3 * PI / 4, 0.0])
            for x in (1, 2):
                for y in (1, 2, 3):
                    add(f"noisy-2x3{name}-L2-{x}{y}", 2, v, theta, alice, bob,
                        gen=(x, y))
        add("local-2x2-L2", 2, near(0.6, 0.002), u(0.0, PI / 4),
            [u(0.0, 2 * PI), u(0.0, 2 * PI)], [u(0.0, 2 * PI), u(0.0, 2 * PI)],
            local=True)
        add("two-bit-2x3-L2", 2, 1.0, PI / 4, [0.0, PI / 2],
            [PI / 4, 3 * PI / 4, 0.0], gen=(2, 3), two_bit=True)
        # (level 3, level 2) bounds on one behavior
        self.level_pairs = ((0, 1),)
        for p in self.points:
            if p.get("local") and not checks.is_local_2x2(p["probs"]):
                raise RuntimeError(f"input {p['label']} is not local")

    def labels(self):
        return [p["label"] for p in self.points]

    def run_point(self, i):
        p = self.points[i]
        return self.guessprob.guessing_probability(
            p["behavior"], p["level"], p["xstar"], p["ystar"]
        )

    def parse(self, outs):
        return list(outs)

    @staticmethod
    def hmin(report):
        return report.hmin

    def check(self, reports):
        rng = np.random.default_rng([self.seed, len(WORKLOADS)])
        bad = []
        for p, rep in zip(self.points, reports):
            samples = checks.random_quantum_behaviors(rng, p["mx"], p["my"], 12)
            bad.append(checks.check_bound(p, rep, p["probs"], samples))
        for hi, lo in self.level_pairs:
            bad[hi] += checks.check_level_order(reports[hi].hmin, reports[lo].hmin)
        return bad

    def corruptions(self, reports):
        """(check name, point index, corrupted reports) triples."""
        def replace(i, **changes):
            out = list(reports)
            out[i] = dataclasses.replace(reports[i], **changes)
            return out

        # f = 0 with offset 0.2 reproduces G = 0.2 but lies below the
        # guessing probability (at least 1/4) of every behavior
        flat = dataclasses.replace(
            reports[0].bell_expression,
            coeffs=0.0 * reports[0].bell_expression.coeffs, offset=0.2,
        )
        def find(flag):
            return next(i for i, p in enumerate(self.points) if p.get(flag))

        local, two_bit, pure = find("local"), find("two_bit"), find("pure")
        closed = checks.pure_state_hmin(self.points[pure]["theta"])
        return [
            ("status", 0, replace(0, status="numerical_failure")),
            ("cert-value", 0, replace(
                0, guessing_probability=reports[0].guessing_probability - 1e-3)),
            ("cert-valid", 0, replace(
                0, bell_expression=flat, guessing_probability=0.2)),
            ("range", 1, replace(1, hmin=2.5)),
            ("level-order", 0, replace(1, hmin=reports[0].hmin + 1e-3)),
            ("local", local, replace(local, hmin=0.1)),
            ("closed-form", pure, replace(pure, hmin=closed + 1e-3)),
            ("two-bit", two_bit, replace(two_bit, hmin=1.9)),
        ]


class _CliRows:
    """A workload whose points are one-row runs of a bellrand subcommand
    through ``cli.main``, with the CSV captured from standard output."""

    header = ""

    def __init__(self, bellrand):
        self.cli = bellrand.cli

    def labels(self):
        return [f"v={p['v']:.6g} theta={p['theta']:.6g}" for p in self.points]

    def run_point(self, i):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(self.argv(i))
        return code, buf.getvalue()

    def parse(self, outs):
        """One dict per point; raises ValueError on malformed output or an
        exit code that contradicts the row status."""
        rows = []
        keys = self.header.split(",")
        for code, text in outs:
            lines = text.strip().splitlines()
            if len(lines) != 2 or lines[0] != self.header:
                raise ValueError(f"expected header and one row, got {lines}")
            cells = lines[1].split(",")
            if len(cells) != len(keys):
                raise ValueError(f"bad CSV row {lines[1]!r}")
            row = {
                k: (c if k in ("status", "converged") else float(c))
                for k, c in zip(keys, cells)
            }
            if code != (0 if row["status"] == "optimal" else 2):
                raise ValueError(f"exit code {code} for status {row['status']}")
            rows.append(row)
        return rows

    @staticmethod
    def hmin(row):
        return row["hmin"] if math.isfinite(row["hmin"]) else 0.0

    @staticmethod
    def replace(rows, i, **changes):
        out = list(rows)
        out[i] = dict(rows[i], **changes)
        return out


class Sweep(_CliRows):
    """`bellrand sweep` rows at level 2 on 2x2: two below the Werner
    threshold, six noisy entangled states, and two pure states, one of them
    the Tsirelson point. Most rows are noisy entangled states of similar
    cost, so the median row time is taken over several of them."""

    name = "sweep"
    header = checks.SWEEP_HEADER
    starts = 2

    def __init__(self, seed, bellrand):
        super().__init__(bellrand)
        u = _uniform(seed, self.name)
        below = [(0.65, 0.57), (0.69, 0.33)]
        noisy = [(0.92, 0.60), (0.93, 0.70), (0.94, 0.50),
                 (0.96, 0.42), (0.97, 0.35), (0.98, 0.30)]
        self.points = [
            dict(v=v + u(-0.002, 0.002), theta=t + u(-0.005, 0.005))
            for v, t in below + noisy
        ] + [
            dict(v=1.0, theta=PI / 16),
            dict(v=1.0, theta=PI / 4, tsirelson=True),
        ]
        self.pure, self.tsirelson = 8, 9

    def argv(self, i):
        p = self.points[i]
        # every row is its own sweep run at the default see-saw seed
        return [
            "sweep", "--v-grid", repr(p["v"]), "--theta-grid", repr(p["theta"]),
            "--level", "2", "--starts", str(self.starts), "--epsilon", "1e-4",
            "--jobs", "1",
        ]

    def check(self, rows):
        return [
            checks.check_sweep_row(r, p["v"], p["theta"], p.get("tsirelson", False))
            for p, r in zip(self.points, rows)
        ]

    def corruptions(self, rows):
        closed = checks.pure_state_hmin(PI / 16)
        noisy, pure, tsi = 2, self.pure, self.tsirelson
        return [
            ("status", noisy, self.replace(rows, noisy, status="failed")),
            ("chsh", noisy, self.replace(rows, noisy, chsh=rows[noisy]["chsh"] + 1e-6)),
            ("local", 0, self.replace(rows, 0, hmin_chsh=1e-3)),
            ("tsirelson", tsi, self.replace(rows, tsi, hmin_chsh=1.2)),
            ("closed-form", pure, self.replace(
                rows, pure, hmin=closed + 1e-3, hmin_chsh=closed)),
            ("below-chsh-only", noisy, self.replace(
                rows, noisy, hmin=rows[noisy]["hmin_chsh"] - 1e-3)),
            ("echo", noisy, self.replace(rows, noisy, theta=rows[noisy]["theta"] + 1e-6)),
            ("range", noisy, self.replace(rows, noisy, hmin=math.nan)),
        ]


class Tomography(_CliRows):
    """`bellrand tomography` rows: the pure state at both endpoints and at
    one seeded interior angle, and the v = 0.999 state at 0, pi/8, pi/4."""

    name = "tomography"
    header = checks.TOMOGRAPHY_HEADER

    def __init__(self, seed, bellrand):
        super().__init__(bellrand)
        u = _uniform(seed, self.name)
        self.points = [
            dict(v=1.0, theta=0.0, endpoint=True),
            dict(v=1.0, theta=u(0.38, 0.4)),
            dict(v=1.0, theta=PI / 4, endpoint=True),
            dict(v=0.999, theta=0.0),
            dict(v=0.999, theta=PI / 8),
            dict(v=0.999, theta=PI / 4),
        ]
        self.mid, self.ends = 4, (3, 5)

    def argv(self, i):
        p = self.points[i]
        return [
            "tomography", "--v-grid", repr(p["v"]), "--theta-grid", repr(p["theta"]),
            "--grid-size", "8",
        ]

    def check(self, rows):
        bad = [
            checks.check_tomography_row(
                r, p["v"], p["theta"], p.get("endpoint", False)
            )
            for p, r in zip(self.points, rows)
        ]
        bad[self.mid] += checks.check_non_monotone(
            rows[self.mid]["hmin"], [rows[i]["hmin"] for i in self.ends]
        )
        return bad

    def corruptions(self, rows):
        return [
            ("status", 1, self.replace(rows, 1, status="numerical_failure")),
            ("closed-form", 1, self.replace(rows, 1, hmin=rows[1]["hmin"] + 1e-3)),
            ("endpoint", 0, self.replace(rows, 0, hmin=1.99)),
            ("non-monotone", self.mid, self.replace(
                rows, self.mid, hmin=rows[self.ends[0]]["hmin"] + 1e-3)),
            ("range", 3, self.replace(rows, 3, hmin=-0.5)),
            ("echo", 5, self.replace(rows, 5, v=0.99)),
        ]


def make(name, seed, bellrand):
    return {"certify": Certify, "sweep": Sweep, "tomography": Tomography}[name](
        seed, bellrand
    )
