"""Reference values of every closed form that carries the growth tail
exp(lam^4 t / 4 nu - lam^2 w / 2 nu) Phi(lam^2 sqrt(t / 2 nu) - w / sqrt(2 nu t)).

The values were taken from the erfcx-based ``exp_phi`` these closed forms
used before the tail was written once (``kernels.growth_tail``), so a change
in how the tail is evaluated shows here.  Rows cover lam = 0, both signs of
the Phi argument, and lam = 7.25 at t = nu = 1, where lam^4 t / nu = 2763
puts the growth factor near e^690, close to the double-precision edge (mgf
rows use nu = 1/2, which is the local-time identity, and lam = 6.125).

At e^690 one ulp of the exponent (1.1e-13) is a relative change of the
result of the same size, so the edge rows use dyadic lam, t and distances:
every way of writing the exponent then rounds to the same double, and the
rows compare how exp * Phi is evaluated rather than the order of rounding
in its argument.  f3 is not pinned at lam = 0, where it is exactly zero and
any value is rounding residue.
"""

import numpy as np
import pytest

from she_moments.kernels import (KernelParams, TwoPointQuery,
                                 covariance_kernel, mgf_local_time,
                                 second_moment_kernel,
                                 second_moment_time_factor,
                                 two_point_kernel_at,
                                 two_point_kernel_centered,
                                 two_point_lebesgue, two_point_time_factor)
from she_moments.transforms import (conv_heat_offset_factor,
                                    conv_heat_time_factor,
                                    inverse_transform_f1,
                                    inverse_transform_f3)

REL = 1e-13

FUNCS = {
    "H": lambda p, t: second_moment_time_factor(t, p),
    "K": lambda p, t, x: second_moment_kernel(t, x, p),
    "Ht": lambda p, t, x: two_point_time_factor(t, x, p),
    "Kdag": lambda p, t, z1, z2, y: covariance_kernel(t, z1, z2, y, p),
    "Kstar_at": lambda p, t, x1, x2, z1, z2: two_point_kernel_at(
        TwoPointQuery(t, x1, x2), p)(z1, z2),
    "centered": lambda p, t, x1, x2, z1, z2: two_point_kernel_centered(
        t, x1, x2, z1, z2, p),
    "lebesgue": lambda p, t, x1, x2: two_point_lebesgue(
        TwoPointQuery(t, x1, x2), p),
    "mgf": lambda p, t, x: mgf_local_time(t, x, p.lam),
    "f1+": lambda p, t, x: inverse_transform_f1(t, x, +1, p),
    "f1-": lambda p, t, x: inverse_transform_f1(t, x, -1, p),
    "f3+": lambda p, t, x: inverse_transform_f3(t, x, +1, p),
    "f3-": lambda p, t, x: inverse_transform_f3(t, x, -1, p),
    "conv": lambda p, t, dz: conv_heat_time_factor(t, dz, p),
    "conv_offset": lambda p, t, dx, dz: conv_heat_offset_factor(t, dx, dz, p),
}

# (function, nu, lam, arguments after the parameters, reference value)
PINS = [
    ('H', 1.0, 0.0, (0.5,), 0.3989422804014327),
    ('H', 1.0, 0.0, (1.7,), 0.21635682882675372),
    ('H', 1.0, 1.0, (0.5,), 0.7907070895746469),
    ('H', 1.0, 1.0, (1.7,), 0.8448072786690974),
    ('H', 0.7, 1.3, (0.5,), 2.172990611691661),
    ('H', 0.7, 1.3, (1.7,), 6.881514418865019),
    ('H', 1.0, 7.25, (1.0,), 2.446954838596829e+301),
    ('K', 1.0, 0.0, (0.5, 0.0), 0.0),
    ('K', 1.0, 0.0, (1.7, -1.9), 0.0),
    ('K', 1.0, 1.0, (0.5, 0.0), 0.6308929788889791),
    ('K', 1.0, 1.0, (1.7, -1.9), 0.04372412671721686),
    ('K', 0.7, 1.3, (0.5, 0.0), 3.502156876389834),
    ('K', 0.7, 1.3, (1.7, -1.9), 0.28956144298858966),
    ('K', 1.0, 7.25, (1.0, 0.0), 7.256497179773514e+302),
    ('K', 1.0, 7.25, (1.0, -1.875), 2.157299748630375e+301),
    ('Ht', 1.0, 0.0, (0.5, 0.2), 0.3910426939754559),
    ('Ht', 1.0, 0.0, (0.5, -2.5), 0.01752830049356854),
    ('Ht', 1.0, 0.0, (1.7, 4.2), 0.016164401449100183),
    ('Ht', 1.0, 1.0, (0.5, 0.2), 0.7078196561329995),
    ('Ht', 1.0, 1.0, (0.5, -2.5), 0.02122124372842074),
    ('Ht', 1.0, 1.0, (1.7, 4.2), 0.024366529344148687),
    ('Ht', 0.7, 1.3, (0.5, 0.2), 1.6944882458615105),
    ('Ht', 0.7, 1.3, (0.5, -2.5), 0.007845144117847591),
    ('Ht', 0.7, 1.3, (1.7, 4.2), 0.014724952985593644),
    ('Ht', 1.0, 7.25, (1.0, 0.25), 3.4290632106548505e+298),
    ('Ht', 1.0, 7.25, (1.0, -2.5), 7.146959527046351e+272),
    ('Ht', 1.0, 7.25, (1.0, 4.25), 7.585218241590474e+252),
    ('Kdag', 1.0, 0.0, (0.5, 0.2, -0.1, 0.05), 0.0),
    ('Kdag', 1.0, 0.0, (1.7, 1.5, -2.0, 0.7), 0.0),
    ('Kdag', 1.0, 0.0, (0.5, -0.4, 0.9, -2.2), 0.0),
    ('Kdag', 1.0, 1.0, (0.5, 0.2, -0.1, 0.05), 0.22426141262311283),
    ('Kdag', 1.0, 1.0, (1.7, 1.5, -2.0, 0.7), 0.00911784807505961),
    ('Kdag', 1.0, 1.0, (0.5, -0.4, 0.9, -2.2), 0.00039468465415176977),
    ('Kdag', 0.7, 1.3, (0.5, 0.2, -0.1, 0.05), 0.9840727128769063),
    ('Kdag', 0.7, 1.3, (1.7, 1.5, -2.0, 0.7), 0.01679188058716819),
    ('Kdag', 0.7, 1.3, (0.5, -0.4, 0.9, -2.2), 0.00013367866475287615),
    ('Kdag', 1.0, 7.25, (1.0, 0.25, -0.125, 0.0625), 7.214045217707621e+296),
    ('Kdag', 1.0, 7.25, (1.0, 1.5, -2.0, 0.75), 1.4608348762041637e+261),
    ('Kdag', 1.0, 7.25, (1.0, -0.375, 0.875, -2.25), 1.0424412584789112e+264),
    ('Kstar_at', 1.0, 0.0, (0.5, 0.1, 0.2, -0.1, 0.0), 0.29383705915272673),
    ('Kstar_at', 1.0, 0.0, (1.7, -1.0, 1.5, 0.4, -2.2), 0.0009382946861652081),
    ('Kstar_at', 1.0, 1.0, (0.5, 0.1, 0.2, -0.1, 0.0), 0.527156051749965),
    ('Kstar_at', 1.0, 1.0, (1.7, -1.0, 1.5, 0.4, -2.2), 0.0013252252356562378),
    ('Kstar_at', 0.7, 1.3, (0.5, 0.1, 0.2, -0.1, 0.0), 1.4528630585255533),
    ('Kstar_at', 0.7, 1.3, (1.7, -1.0, 1.5, 0.4, -2.2), 0.00037004641175767295),
    ('Kstar_at', 1.0, 7.25, (1.0, 0.125, 0.25, -0.125, 0.0), 1.8174277269089824e+298),
    ('Kstar_at', 1.0, 7.25, (1.0, -1.0, 1.5, 0.375, -2.25), 1.0762011344405425e+242),
    ('centered', 1.0, 0.0, (0.5, 0.1, 0.2, -0.1, 0.0), 0.2938370591527268),
    ('centered', 1.0, 0.0, (1.7, -1.0, 1.5, 0.4, -2.2), 0.0009382946861652084),
    ('centered', 1.0, 1.0, (0.5, 0.1, 0.2, -0.1, 0.0), 0.527156051749965),
    ('centered', 1.0, 1.0, (1.7, -1.0, 1.5, 0.4, -2.2), 0.001325225235656238),
    ('centered', 0.7, 1.3, (0.5, 0.1, 0.2, -0.1, 0.0), 1.4528630585255535),
    ('centered', 0.7, 1.3, (1.7, -1.0, 1.5, 0.4, -2.2), 0.000370046411757673),
    ('centered', 1.0, 7.25, (1.0, 0.125, 0.25, -0.125, 0.0), 1.8174277269089822e+298),
    ('centered', 1.0, 7.25, (1.0, -1.0, 1.5, 0.375, -2.25), 1.0762011344405425e+242),
    ('lebesgue', 1.0, 0.0, (0.5, 0.1, 0.25), 1.0000000000000004),
    ('lebesgue', 1.0, 0.0, (1.7, -1.0, 2.6), 1.0),
    ('lebesgue', 1.0, 1.0, (0.5, 0.1, 0.25), 1.4581986984749857),
    ('lebesgue', 1.0, 1.0, (1.7, -1.0, 2.6), 1.025669323676429),
    ('lebesgue', 0.7, 1.3, (0.5, 0.1, 0.25), 2.3569424357111335),
    ('lebesgue', 0.7, 1.3, (1.7, -1.0, 2.6), 1.0271781870527161),
    ('lebesgue', 1.0, 7.25, (1.0, 0.125, 0.25), 6.970833355566798e+298),
    ('lebesgue', 1.0, 7.25, (1.0, -1.0, 2.625), 7.851962500366172e+258),
    ('mgf', 0.5, 0.0, (0.5, 0.1), 1.0),
    ('mgf', 0.5, 0.0, (1.2, -3.0), 1.0),
    ('mgf', 0.5, 1.0, (0.5, 0.1), 1.7720180661627998),
    ('mgf', 0.5, 1.0, (1.2, -3.0), 1.0029334882146963),
    ('mgf', 0.5, 1.3, (0.5, 0.1), 3.0580450867523092),
    ('mgf', 0.5, 1.3, (1.2, -3.0), 1.0069005069814057),
    ('mgf', 0.5, 6.125, (1.0, 0.125), 7.625290717688292e+303),
    ('mgf', 0.5, 6.125, (1.0, -3.0), 1.0974209668612805e+257),
    ('f1+', 1.0, 0.0, (0.5, 0.1), 0.11504304068074277),
    ('f1+', 1.0, 0.0, (1.7, -3.0), 0.012967709779567696),
    ('f1+', 1.0, 1.0, (0.5, 0.1), 0.0816757472284797),
    ('f1+', 1.0, 1.0, (1.7, -3.0), 0.009259000322803619),
    ('f1+', 0.7, 1.3, (0.5, 0.1), 0.0867993274979718),
    ('f1+', 0.7, 1.3, (1.7, -3.0), 0.005321391636611652),
    # f1+ at the edge is exp(c) Phi(d) with c and d^2 / 2 near 700 and
    # cancelling: these two rows carry the 40-digit mpmath value (the erfcx
    # form was 1.1e-13 and 2.3e-13 from it, the log-Phi form 3.5e-14 and 7e-16).
    ('f1+', 1.0, 7.25, (1.0, 0.125), 0.00266470222011221),
    ('f1+', 1.0, 7.25, (1.0, -3.0), 0.0002673867062305402),
    ('f1-', 1.0, 0.0, (0.5, 0.1), 0.11504304068074277),
    ('f1-', 1.0, 0.0, (1.7, -3.0), 0.012967709779567696),
    ('f1-', 1.0, 1.0, (0.5, 0.1), 0.17661717685674266),
    ('f1-', 1.0, 1.0, (1.7, -3.0), 0.020511794930035212),
    ('f1-', 0.7, 1.3, (0.5, 0.1), 0.4287571442158014),
    ('f1-', 0.7, 1.3, (1.7, -3.0), 0.025273597403641504),
    ('f1-', 1.0, 7.25, (1.0, 0.125), 8.713541694458497e+297),
    ('f1-', 1.0, 7.25, (1.0, -3.0), 1.3351018191338551e+265),
    ('f3+', 1.0, 1.0, (0.5, 0.1), 0.03336729345226305),
    ('f3+', 1.0, 1.0, (1.7, -3.0), 0.0037087094567640807),
    ('f3+', 0.7, 1.3, (0.5, 0.1), 0.0747830170467511),
    ('f3+', 0.7, 1.3, (1.7, -3.0), 0.003932500119120778),
    ('f3+', 1.0, 7.25, (1.0, 0.125), 0.11353130056458971),
    ('f3+', 1.0, 7.25, (1.0, -3.0), 0.003969469984355679),
    ('f3-', 1.0, 1.0, (0.5, 0.1), 0.06157413617599991),
    ('f3-', 1.0, 1.0, (1.7, -3.0), 0.0075440851504675124),
    ('f3-', 0.7, 1.3, (0.5, 0.1), 0.2671747996710785),
    ('f3-', 0.7, 1.3, (1.7, -3.0), 0.016019705647909076),
    ('f3-', 1.0, 7.25, (1.0, 0.125), 8.713541694458497e+297),
    ('f3-', 1.0, 7.25, (1.0, -3.0), 1.3351018191338551e+265),
    ('conv', 1.0, 1.0, (0.5, 0.2), 0.31677696215754364),
    ('conv', 1.0, 1.0, (1.7, -4.0), 0.010985328944948265),
    ('conv', 0.7, 1.3, (0.5, 0.2), 0.7284567283689058),
    ('conv', 0.7, 1.3, (1.7, -4.0), 0.007523681594543508),
    ('conv', 1.0, 7.25, (1.0, 0.25), 6.5237825648605956e+296),
    ('conv', 1.0, 7.25, (1.0, -4.0), 1.029775442469474e+254),
    ('conv_offset', 1.0, 1.0, (0.5, 0.1, -0.05), 0.33474082843362524),
    ('conv_offset', 1.0, 1.0, (1.7, 1.5, -2.5), 0.010985328944948265),
    ('conv_offset', 0.7, 1.3, (0.5, 0.1, -0.05), 0.7909488987042292),
    ('conv_offset', 0.7, 1.3, (1.7, 1.5, -2.5), 0.007523681594543508),
    ('conv_offset', 1.0, 7.25, (1.0, 0.125, -0.0625), 3.371802229802163e+297),
    ('conv_offset', 1.0, 7.25, (1.0, 1.5, -2.5), 1.029775442469474e+254),
]

# Kernels that also take arrays: their rows evaluated in one array call go
# through exp_phi's array path.
ARRAY_FUNCS = ("K", "Ht", "Kdag", "centered")


def test_every_routed_function_is_pinned():
    assert {row[0] for row in PINS} == set(FUNCS)


@pytest.mark.parametrize("name, nu, lam, args, want", PINS)
def test_pinned_value(name, nu, lam, args, want):
    got = FUNCS[name](KernelParams(nu=nu, lam=lam), *args)
    assert abs(got - want) <= REL * abs(want)


@pytest.mark.parametrize("name", ARRAY_FUNCS)
def test_pinned_values_as_arrays(name):
    for nu, lam in {(row[1], row[2]) for row in PINS if row[0] == name}:
        rows = [row for row in PINS if row[:3] == (name, nu, lam)]
        for t in {row[3][0] for row in rows}:
            sel = [row for row in rows if row[3][0] == t]
            args = [np.array(col) for col in zip(*(row[3][1:] for row in sel))]
            want = np.array([row[4] for row in sel])
            got = FUNCS[name](KernelParams(nu=nu, lam=lam), t, *args)
            assert np.all(np.abs(got - want) <= REL * np.abs(want))
