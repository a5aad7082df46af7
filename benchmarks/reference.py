"""Closed-form answers the benchmark checks blowuplab against.

Everything here is written out from the textbook formulas with numpy only;
nothing imports blowuplab, so no check compares the program with itself.
"""

import math

import numpy as np

# u = 6 / (sqrt(6) - t)^2 solves u'' = u^2 with u(0) = 1, u'(0) = sqrt(2/3),
# so the space-free blow-up time of that data is exactly sqrt(6).
SQRT6 = math.sqrt(6.0)


def space_free_solution(t):
    return 6.0 / (SQRT6 - np.asarray(t, dtype=float)) ** 2


def damped_mode(k, b0, y0, v0, t, derivative=0):
    """The m-th time derivative of y solving y'' + b0 k^2 y' + k^2 y = 0,
    y(0) = y0, y'(0) = v0, through the roots of r^2 + b0 k^2 r + k^2 = 0.

    Broadcasts over arrays of k, y0, v0 and t; complex y0, v0 (Fourier
    coefficients) give complex results.  Critical damping b0 k = 2 is a
    double root and is not handled.
    """
    k2 = np.asarray(k, dtype=float) ** 2
    root = np.sqrt((b0 * k2) ** 2 - 4.0 * k2 + 0j)
    r1 = 0.5 * (-b0 * k2 + root)
    r2 = 0.5 * (-b0 * k2 - root)
    moving = k2 > 0
    c1 = (v0 - r2 * y0) / np.where(moving, r1 - r2, 1.0)
    c2 = y0 - c1
    y = c1 * r1**derivative * np.exp(r1 * t) + c2 * r2**derivative * np.exp(r2 * t)
    # the k = 0 mode moves with constant velocity: y0 + v0 t
    still = (y0 + v0 * t, v0 + 0.0 * t, 0.0 * t)[min(derivative, 2)]
    return np.where(moving, y, still)


def damped_field_1d(u0, u1, half_width, b0, t):
    """Periodic 1-D solution of u_tt - u_xx - b0 u_txx = 0 at time t, mode
    by mode on the sampled data's discrete Fourier modes."""
    n = len(u0)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * half_width / n)
    return np.fft.ifft(damped_mode(k, b0, np.fft.fft(u0), np.fft.fft(u1), t)).real


def window_exponents(p, n, beta, d):
    """Horizon exponents of the window-term bundle, from scaling alone.

    The window lives on t < T and |x| < T^d, so its space-time volume scales
    like T^(1 + n d); each time derivative costs T^(-1) and each space
    derivative T^(-d), raised to the conjugate power q = p / (p - 1).  The
    mixed terms carry the damping weight T^(-beta q) at t ~ T; the damping
    decay terms integrate (1+t)^(-(beta+1) q) over [0, T], which grows like
    T^(1 - (beta+1) q) when that power is positive and stays bounded
    otherwise.  The data factor is a sup norm: two space derivatives, no
    volume.
    """
    q = p / (p - 1.0)
    volume = 1.0 + n * d
    time_terms = volume - 2.0 * q
    space_terms = volume - 2.0 * d * q
    mixed = volume - (beta + 1.0) * q - 2.0 * d * q
    decay = n * d - 2.0 * d * q + max(0.0, 1.0 - (beta + 1.0) * q)
    return {
        "B_tt": time_terms,
        "B_t2": time_terms,
        "B_dx1": space_terms,
        "B_dx2": space_terms,
        "B_mix1": mixed,
        "B_mix2": mixed,
        "B_beta1": decay,
        "B_beta2": decay,
        "D_data": -2.0 * d,
    }
