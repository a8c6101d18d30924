"""References shared by the tests: a series summed term by term, and a flowed remainder.

In reference_rows each term c e^(2 pi i k.theta) I1^a I2^b prod_j d_j(I)^(-m_j)
and its four first partials are evaluated on their own in complex
arithmetic and added up; no table, basis or cos/sin fold is involved.
flowed_remainder measures a normal form's last remainder by flowing every
point through its whole transform, with no Lie series.
"""

import numpy as np

from resodrift.fourier import FourierPerturbation
from resodrift.systems import hamiltonian_series

TWO_PI = 2.0 * np.pi


def reference_rows(series, th1, th2, I1, I2):
    """(value, d/dtheta1, d/dtheta2, d/dI1, d/dI2) of series at 1-D points, as a (5, n) real array."""
    th1, th2, I1, I2 = (np.asarray(v, dtype=float) for v in (th1, th2, I1, I2))
    d = [p(I1, I2) for p in series.divisors]
    dd = [(p.partial(1, 0)(I1, I2), p.partial(0, 1)(I1, I2)) for p in series.divisors]
    out = np.zeros((5, th1.size), dtype=complex)
    for (k1, k2, a, b, *m), c in zip(series.e.tolist(), series.c.tolist()):
        wave = c * np.exp(1j * TWO_PI * (k1 * th1 + k2 * th2))
        quotient = np.ones_like(I1)
        for dj, mj in zip(d, m):
            quotient = quotient * dj ** -float(mj)
        mono = I1**a * I2**b
        # d/dI of the monomial and of prod_j d_j^-m_j = -m_j (dd_j/dI) / d_j times the product
        d_mono = (a * I1 ** (a - 1) * I2**b if a else 0.0, b * I1**a * I2 ** (b - 1) if b else 0.0)
        for i in (0, 1):
            d_quotient = -sum(mj * ddj[i] / dj for dj, ddj, mj in zip(d, dd, m)) * quotient
            out[3 + i] += wave * (d_mono[i] * quotient + mono * d_quotient)
        term = wave * mono * quotient
        out[0] += term
        out[1] += 1j * TWO_PI * k1 * term
        out[2] += 1j * TWO_PI * k2 * term
    return out.real


def flowed_remainder(nf, th1, th2, I1, I2):
    """(H o Phi - h - sum_j eps^j f_bar_j) / eps^(n+1) of nf at points, each flowed through Phi.

    h + eps f_bar_1 is a series without divisors; the later f_bar_j join it
    as one series over theirs.  The difference of O(1) values
    is divided by eps^(n+1), so it carries about 5e-15 / eps^n of rounding
    noise.
    """
    moved = nf.bundle.hamiltonian(*nf.phi_points(th1, th2, I1, I2))
    base = hamiltonian_series(nf.bundle.system.h, nf.step1.scale * nf.step1.f_bar)
    later = [step.f_bar * step.scale for step in nf.averaging_steps[1:]]
    base = FourierPerturbation.concatenate([base, *later])
    return (moved - base.table().values(th1, th2, I1, I2)) / nf.epsilon ** (nf.steps + 1)
