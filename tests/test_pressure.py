"""Pressure module: the hypergeometric route against the closed forms and
mpmath, derivatives, ODE residual, and the Legendre-transform rate
function."""

import importlib
import math
import sys
from fractions import Fraction

import pytest
from scipy.optimize import brentq
from hypothesis import given, settings
from hypothesis import strategies as st

from treeldp import chain
from treeldp.verify import _CLOSED_FORMS
from treeldp import (
    PressureEval,
    RatePoint,
    mean_slope,
    ode_residual,
    pressure,
    pressure_derivatives,
    rate,
    sigma_sq,
)

pressure_mod = importlib.import_module("treeldp.pressure")


def test_closed_form_values():
    e = math.e
    assert pressure(PressureEval(2.0), 1.0) == pytest.approx(
        math.log((e - 1) ** 2 / (2 * (e - 2))), abs=1e-12
    )
    assert pressure(PressureEval(1.0), 1.0) == pytest.approx(math.log(e - 1), abs=1e-12)


def test_pressure_zero_at_origin():
    for alpha in (0.5, 1.0, 1.5, 2.0, 3.7):
        assert pressure(PressureEval(alpha), 0.0) == 0.0


def test_half_alpha_branches_finite():
    ev = PressureEval(0.5)
    up = pressure(ev, 2.0)
    down = pressure(ev, -2.0)
    assert math.isfinite(up) and math.isfinite(down)
    assert down < 0 < up  # strictly increasing through 0


def test_pressure_is_continuous_through_1e_4():
    # the jump across lambda = 1e-4, where a Taylor patch once took over,
    # must be just the slope term
    for alpha in (0.5, 1.0, 2.0, 1.5):
        ev = PressureEval(alpha)
        below = pressure(ev, 9.9e-5)
        above = pressure(ev, 1.01e-4)
        d1, _ = pressure_derivatives(ev, 0.0)
        assert abs((above - below) - d1 * 2e-6) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.sampled_from([0.5, 1.0, 2.0]),
    # the closed forms cancel as lambda -> 0; the near-zero mpmath cells
    # cover |lambda| < 1e-4
    lam=st.one_of(st.floats(min_value=-4.0, max_value=-1e-4), st.floats(min_value=1e-4, max_value=4.0)),
)
def test_hypergeometric_route_matches_closed_form(alpha, lam):
    assert pressure(PressureEval(alpha), lam) == pytest.approx(_CLOSED_FORMS[alpha](lam), abs=1e-9)


def test_derivative_constants_at_zero():
    assert pressure_derivatives(PressureEval(2.0), 0.0) == (2 / 3, 1 / 9)
    d1, d2 = pressure_derivatives(PressureEval(0.5), 0.0)
    assert d1 == pytest.approx(1 / 3, abs=1e-15)
    assert d2 == pytest.approx(2 / 45, abs=1e-15)


def test_derivatives_match_finite_differences():
    h1, h2 = 1e-6, 1e-4  # wider step for the 2nd difference: h^-2 roundoff
    for alpha, lam in ((2.0, 1.0), (1.5, 0.7), (0.5, -1.2)):
        ev = PressureEval(alpha)
        d1, d2 = pressure_derivatives(ev, lam)
        fd1 = (pressure(ev, lam + h1) - pressure(ev, lam - h1)) / (2 * h1)
        fd2 = (pressure(ev, lam + h2) - 2 * pressure(ev, lam) + pressure(ev, lam - h2)) / h2**2
        assert d1 == pytest.approx(fd1, abs=1e-6)
        assert d2 == pytest.approx(fd2, abs=1e-6)


def test_ode_residual_examples():
    assert abs(ode_residual(PressureEval(2.0), 1.0)) <= 1e-6
    assert abs(ode_residual(PressureEval(1.0), -2.0)) <= 1e-6
    assert abs(ode_residual(PressureEval(0.5), 0.5)) <= 1e-6
    with pytest.raises(ValueError):
        ode_residual(PressureEval(2.0), 0.0)


def test_rate_at_mean_and_boundary():
    ev = PressureEval(2.0)
    pt = rate(ev, 2 / 3)
    assert pt.rate == pytest.approx(0.0, abs=1e-10)
    assert pt.lambda_star == pytest.approx(0.0, abs=1e-8)
    top = rate(ev, 1.0)
    assert top.rate == pytest.approx(math.log(2), abs=1e-12)
    assert rate(PressureEval(1.0), 0.5).rate == pytest.approx(0.0, abs=1e-10)
    assert rate(PressureEval(1.0), 1.0).rate == math.inf


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_rate_legendre_duality(alpha, frac):
    # achievable slopes top out at alpha when alpha < 1 (cherries <= leaves/2)
    hi = 0.9 * alpha if alpha < 1 else 0.95
    x = 0.05 + frac * (hi - 0.05)
    ev = PressureEval(alpha)
    pt = rate(ev, x)
    d1, _ = pressure_derivatives(ev, pt.lambda_star)
    assert d1 == pytest.approx(x, abs=1e-9)
    assert pt.rate == pytest.approx(
        pt.lambda_star * x - pressure(ev, pt.lambda_star), abs=1e-9
    )
    assert pt.rate >= -1e-12
    if abs(x - mean_slope(alpha)) > 1e-3:
        assert pt.rate > 0


def test_rate_domain():
    ev = PressureEval(2.0)
    with pytest.raises(ValueError):
        rate(ev, 0.0)
    with pytest.raises(ValueError):
        rate(ev, 1.5)
    # for alpha < 1 slopes beyond alpha are unreachable (Z_n <= s_n): +inf,
    # as at x = 1
    for alpha, x in ((0.5, 0.6), (0.5, 0.9), (0.75, 0.76), (0.3, 0.99), (0.99, 0.995)):
        assert rate(PressureEval(alpha), x) == RatePoint(x, math.inf, math.inf)
    assert rate(PressureEval(0.5), 1.0) == RatePoint(1.0, math.inf, math.inf)


def test_rate_at_alpha_below_one():
    # for alpha < 1 the reachable slopes end at x = alpha, where the rate is
    # log(alpha pi / sin(pi alpha)): log(pi/2) at alpha = 1/2
    assert rate(PressureEval(0.5), 0.5) == RatePoint(0.5, math.inf, math.log(math.pi / 2))
    pt = rate(PressureEval(0.75), 0.75)
    assert pt.lambda_star == math.inf
    assert pt.rate == pytest.approx(math.log(3 * math.pi / (2 * math.sqrt(2))), rel=1e-14)
    # the finite rates below the edge approach it
    assert rate(PressureEval(0.5), 0.499999).rate == pytest.approx(math.log(math.pi / 2), abs=1e-4)


def test_rate_reaches_the_far_lower_tail():
    # Lambda' is exact on the whole lower tail, so the solve steps outward
    # until it brackets lambda*: about -1e15 at x = 1e-15
    pt = rate(PressureEval(1.5), 0.03)  # mpmath: -33.947038972210401, 2.8936118362617456
    assert pt.lambda_star == pytest.approx(-33.947038972210401, rel=1e-14)
    assert pt.rate == pytest.approx(2.8936118362617456, rel=1e-14)
    for alpha in (0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 20.0, 1000.0):
        ev = PressureEval(alpha)
        for x in (0.03, 1e-6, 1e-15):
            pt = rate(ev, x)
            assert pressure_derivatives(ev, pt.lambda_star)[0] == pytest.approx(x, rel=1e-15)
            assert pt.rate > 0.0


def test_rate_upper_bracket_reaches_its_cap():
    # the solve clamps its trials to lambda = log(DBL_MAX) ~ 709.78:
    # lambda* = 1/(1 - x) = 33.3 at alpha = 1, x = 0.97, beyond the old
    # refusal at 32
    pt = rate(PressureEval(1.0), 0.97)
    assert pt.lambda_star == pytest.approx(100.0 / 3.0, rel=1e-12)
    assert pt.rate == pytest.approx(2.50655789732, abs=1e-11)
    pt = rate(PressureEval(0.75), 0.74995)
    assert 32.0 < pt.lambda_star < 64.0
    assert pressure_derivatives(PressureEval(0.75), pt.lambda_star)[0] == pytest.approx(0.74995, rel=1e-15)
    assert 0.0 < pt.rate < math.log(3 * math.pi / (2 * math.sqrt(2)))
    # beyond the cap the refusal names it: lambda* = 1000 at alpha = 1
    with pytest.raises(ValueError, match="lambda\\* above 709.78: x=0.999 "):
        rate(PressureEval(1.0), 0.999)


@pytest.mark.parametrize("x", [0.9981, 0.9985])
def test_rate_answers_up_to_the_lambda_ceiling(x):
    # at alpha = 1, Lambda' = 1/(1 - e^-lambda) - 1/lambda, so lambda* =
    # 1/(1 - x) up to e^-lambda*: 526.3 and 666.7, which the old cap at
    # lambda = 512 refused
    ev = PressureEval(1.0)
    pt = rate(ev, x)
    assert pt.lambda_star == pytest.approx(1.0 / (1.0 - x), rel=1e-12)
    assert abs(pressure_derivatives(ev, pt.lambda_star)[0] - x) <= 1e-15
    assert pt.rate == pytest.approx(pt.lambda_star * x - pressure(ev, pt.lambda_star), rel=1e-15)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.5, 3.0, 50.0])
def test_derivatives_at_the_lambda_ceiling(alpha):
    # rate's trials stop at _LAMBDA_MAX, so the route must answer there
    d1, d2 = pressure_derivatives(PressureEval(alpha), pressure_mod._LAMBDA_MAX)
    assert math.isfinite(d1) and math.isfinite(d2)
    assert 0.0 < d1 <= min(alpha, 1.0)


def test_constants_formulas():
    assert mean_slope(3.0) == 0.75
    assert sigma_sq(2.0) == pytest.approx(1 / 9, abs=1e-15)
    assert sigma_sq(0.5) == pytest.approx(2 / 45, abs=1e-15)


@pytest.mark.parametrize("alpha", [1e100, 1.000001e100, 1e101, 1e103, 1e110, 1e154, 1e200, 1e308])
def test_sigma_sq_for_huge_alpha(alpha):
    # the denominator, about alpha^3, read inf from alpha = 5.6e102 (so
    # sigma^2 read 0) and raised OverflowError from 1.3e154
    a = Fraction(alpha)
    assert sigma_sq(alpha) == pytest.approx(float(a * a / ((1 + a) ** 2 * (2 + a))), rel=1e-15, abs=0.0)


def test_method_scope_and_validation():
    assert PressureEval(2.0).scope == "proven"
    assert PressureEval(1.5).scope == "proven"
    assert PressureEval(1.0).scope == "proven"
    assert PressureEval(0.5).scope == "proven"
    assert PressureEval(0.8).scope == "extrapolated"
    with pytest.raises(ValueError):
        PressureEval(-1.0)
    with pytest.raises(ValueError, match="finite"):
        PressureEval(math.inf)
    # below the floor Lambda's relative error passes 1e-10; below 2^-53
    # the log series divided by zero
    for alpha in (9.99e-5, 2.0**-60, 1e-300):
        with pytest.raises(ValueError, match=r"alpha must be >= 0\.0001 "):
            PressureEval(alpha)


# Lambda at alpha = 1e-4, the floor, from 60-digit mpmath:
# -log 2F1(1, alpha; alpha + 1; 1 - e^lambda); lambda = -2.2745 is the worst
# point of a 5e-4 grid on [-3, -0.5], where Lambda is 1.04e-10 off
SMALL_ALPHA_LAMBDA = [
    (-30.0, -0.0029954925808564504),
    (-5.0, -0.00049985900704931218),
    (-2.2745, -0.00022741121654760079),
    (-1.0, -9.9987226759457442e-5),
    (0.5, 4.9995590727005302e-5),
    (2.0, 0.000199987861560564),
    (5.0, 0.0004999839563041081),
    (30.0, 0.0029999835506592776),
]


@pytest.mark.parametrize("lam, want", SMALL_ALPHA_LAMBDA)
def test_pressure_at_the_alpha_floor_against_mpmath(lam, want):
    assert pressure(PressureEval(1e-4), lam) == pytest.approx(want, rel=2e-10, abs=0)


def test_lambda_above_log_dbl_max_is_refused_by_name():
    ev = PressureEval(2.0)
    top = math.log(sys.float_info.max)
    assert math.isfinite(pressure(ev, top))
    for fn in (pressure, pressure_derivatives, ode_residual):
        with pytest.raises(ValueError, match=r"lambda must be <= 709\.78, "):
            fn(ev, math.nextafter(top, math.inf))
        with pytest.raises(ValueError, match="lambda must be <= 709.78, where e.lambda overflows, got 710.0"):
            fn(ev, 710.0)


def test_hypergeometric_route_agrees_on_general_alpha():
    # no closed form at alpha = 1.5: check the ODE instead
    ev = PressureEval(1.5)
    for lam in (-3.0, -0.4, 0.9, 3.0):
        assert abs(ode_residual(ev, lam)) <= 1e-8


# (lambda, Lambda, Lambda') by mpmath's hyp2f1 at 60 significant digits
# (more where 1 - e^lambda needs them), for the general route on the same
# grid: alpha = 1/2, 1 and 2 included, whose closed forms it must reproduce.
# From alpha = 20 on, cells at -2.9, -2.5 and -2 cover the band where hyp2f1
# loses digits as alpha grows, and from 50 on, -7 and -4.6 sit on either
# side of the lower series' switch at lambda = -log(alpha).
_MPMATH = {
    0.5: [
        (-700.0, -5.8599116165519084, 0.0014257478482822108),
        (-200.0, -4.6120777455773062, 0.0049655812138180062),
        (-40.0, -3.0298025913815948, 0.024162588495466847),
        (-36.0, -2.9281569957647013, 0.026747769927151486),
        (-30.0, -2.7532241317522108, 0.031861040634262977),
        (-20.0, -2.3696030868593152, 0.046758917751386524),
        (-3.0, -0.80507108938522979, 0.20904213302642432),
        (-1.0, -0.31095304472307928, 0.28860700319948767),
        (1.0, 0.35501553267626961, 0.37597994700376144),
        (3.0, 1.1774976478294374, 0.44115332457893431),
        (17.56, 8.3285151858490134, 0.49995105794597902),
        (18.0, 8.548495855303541, 0.49996072196751639),
        (40.0, 19.548417296022716, 0.49999999934391443),
        (200.0, 99.548417294710545, 0.5),
        (700.0, 349.54841729471055, 0.5),
    ],
    0.75: [
        (-700.0, -6.2641246347407525, 0.0014275341308503686),
        (-200.0, -5.0131752916440046, 0.0049873161275829323),
        (-40.0, -3.4138333409768455, 0.024686088480504131),
        (-36.0, -3.3098670152932272, 0.027390772626979971),
        (-30.0, -3.1303280206657454, 0.032777594447556475),
        (-20.0, -2.7331644441146279, 0.048759923357152036),
        (-3.0, -1.0022392204736657, 0.25041981697284288),
        (-1.0, -0.39534434412286222, 0.36255187714943656),
        (1.0, 0.46158810927372356, 0.4939629853588934),
        (3.0, 1.5638243454886048, 0.60157391111174248),
        (17.56, 11.977605949159266, 0.74717735921324413),
        (18.0, 12.30643054787306, 0.74747434800040818),
        (40.0, 28.796419471455303, 0.74998978100792649),
        (200.0, 148.79637859632241, 0.75),
        (700.0, 523.79637859632241, 0.75),
    ],
    0.99: [
        (-700.0, -6.5410536712513664, 0.0014285376117410255),
        (-200.0, -5.2883498804581691, 0.0049995857683415651),
        (-40.0, -3.6792432984548267, 0.024989647639159604),
        (-36.0, -3.5739287922311743, 0.027764997673400901),
        (-30.0, -3.3916992479555424, 0.033314931676199056),
        (-20.0, -2.9865101286545709, 0.049958605657499792),
        (-3.0, -1.1444616079562945, 0.27985531839994865),
        (-1.0, -0.45643943252792102, 0.41605889198877883),
        (1.0, 0.5385350966435592, 0.57891495130926309),
        (3.0, 1.8404541400112498, 0.71511098549118319),
        (17.56, 14.61432124817858, 0.93795931767583345),
        (18.0, 15.027330745524526, 0.93934512847497595),
        (40.0, 36.11401419969146, 0.96967769314043357),
        (200.0, 193.55010336439725, 0.98843512130856788),
        (700.0, 688.40562779890155, 0.98999087436011847),
    ],
    1.0: [
        (-700.0, -6.5510803350434047, 0.0014285714285714286),
        (-200.0, -5.2983173665480367, 0.005),
        (-40.0, -3.6888794541139363, 0.024999999999999996),
        (-36.0, -3.5835189384561102, 0.027777777777777546),
        (-30.0, -3.401197381662249, 0.033333333333239757),
        (-20.0, -2.9957322756151446, 0.049999997938846373),
        (-3.0, -1.1496814696108113, 0.28093763684207738),
        (-1.0, -0.45867514538708189, 0.41802329313067358),
        (1.0, 0.54132485461291811, 0.58197670686932642),
        (3.0, 1.8503185303891887, 0.71906236315792262),
        (17.56, 14.694376388145328, 0.94305241544724446),
        (18.0, 15.109628226873855, 0.94444445967442442),
        (40.0, 36.311120545886064, 0.975),
        (200.0, 194.70168263345196, 0.995),
        (700.0, 693.4489196649566, 0.99857142857142857),
    ],
    1.01: [
        (-700.0, -6.5610073367572607, 0.0014286047563020551),
        (-200.0, -5.3081860430324132, 0.0050004082885130012),
        (-40.0, -3.6984214464324501, 0.025010210547904562),
        (-36.0, -3.5930155495320018, 0.027790383964545979),
        (-30.0, -3.4106032240740582, 0.033351487889975413),
        (-20.0, -3.0048657626121715, 0.05004085679643184),
        (-3.0, -1.1548531743045543, 0.28201036721117375),
        (-1.0, -0.46088945211418933, 0.41996955053391561),
        (1.0, 0.54408532762901282, 0.58500454444166944),
        (3.0, 1.8600633366349367, 0.72295619815910432),
        (17.56, 14.771798956234364, 0.94785289690284487),
        (18.0, 15.189162775958397, 0.94924385995317095),
        (40.0, 36.494846964578992, 0.97965740276985425),
        (200.0, 195.53031869044423, 0.99843452577212303),
        (700.0, 695.38579193129436, 0.99999087135456943),
    ],
    1.5: [
        (-700.0, -6.9556683362645036, 0.0014298249880825685),
        (-200.0, -5.7007092288759921, 0.0050153898652072994),
        (-40.0, -4.0788830050403013, 0.025389542637124754),
        (-36.0, -3.9717896883400815, 0.028259528669346094),
        (-30.0, -3.7859934955649053, 0.034029469238520129),
        (-20.0, -3.370031451419473, 0.051582830650947549),
        (-3.0, -1.3622537492876, 0.32565739324070375),
        (-1.0, -0.5486761801388609, 0.49793029906570678),
        (1.0, 0.65056807218861305, 0.69981464468737685),
        (3.0, 2.2185581178932846, 0.85599942146505525),
        (17.56, 16.461629247263883, 0.99987924109277066),
        (18.0, 16.901581551329067, 0.9999030858358223),
        (40.0, 38.901387714569543, 0.99999999838117373),
        (200.0, 198.90138771133189, 1.0),
        (700.0, 698.90138771133189, 1.0),
    ],
    2.0: [
        (-700.0, -7.2427979227937556, 0.0014306151645207439),
        (-200.0, -5.9864520052844377, 0.0050251256281407035),
        (-40.0, -4.3567088266895917, 0.025641025641025632),
        (-36.0, -4.2484952420493595, 0.028571428571428101),
        (-30.0, -4.0604430105466097, 0.034482758620499165),
        (-20.0, -3.6375861639571748, 0.052631574710869831),
        (-3.0, -1.5130214611120511, 0.35877526049859329),
        (-1.0, -0.61049747133410909, 0.55432841472039239),
        (1.0, 0.72039579686994544, 0.77174222256132003),
        (3.0, 2.4267939170547392, 0.91828844848487243),
        (17.56, 16.866853211046053, 0.99999963204161484),
        (18.0, 17.306853078349752, 0.99999975632024522),
        (40.0, 39.306852819440055, 0.99999999999999984),
        (200.0, 199.30685281944005, 1.0),
        (700.0, 699.30685281944005, 1.0),
    ],
    2.5: [
        (-700.0, -7.4655402887718622, 0.001431189221490276),
        (-200.0, -6.2081856570992633, 0.0050322155471103098),
        (-40.0, -4.5726373789070998, 0.02582669461316268),
        (-36.0, -4.4635958985227877, 0.028802152165927131),
        (-30.0, -4.2738715126853383, 0.034819392877654589),
        (-20.0, -3.8458633199270588, 0.053419860512468764),
        (-3.0, -1.6283227723630832, 0.38536467753133663),
        (-1.0, -0.65610425785072158, 0.59715404725684325),
        (1.0, 0.76811944054115978, 0.81851143042415317),
        (3.0, 2.5532532567674578, 0.94792990706804032),
        (17.56, 17.049174423512276, 0.99999995273029473),
        (18.0, 17.489174406685114, 0.99999996955332148),
        (40.0, 39.489174376234009, 0.99999999999999999),
        (200.0, 199.48917437623401, 1.0),
        (700.0, 699.48917437623401, 1.0),
    ],
    3.0: [
        (-700.0, -7.6475474673651262, 0.0014316392269148175),
        (-200.0, -6.3894013887953548, 0.0050377833753148615),
        (-40.0, -4.7492705299618482, 0.025974025974025961),
        (-36.0, -4.6395716127054245, 0.028985507246376102),
        (-30.0, -4.4485163759430018, 0.035087719297958088),
        (-20.0, -4.0163830271586771, 0.05405404763572103),
        (-3.0, -1.7207821441646058, 0.40771623220286455),
        (-1.0, -0.69138937737635264, 0.63120981346177976),
        (1.0, 0.80248114514514757, 0.85063837465888834),
        (3.0, 2.6359314328716899, 0.96343600521154823),
        (17.56, 17.154534915539516, 0.99999997635233476),
        (18.0, 17.594534907121808, 0.99999998477003487),
        (40.0, 39.594534891891836, 1.0),
        (200.0, 199.59453489189184, 1.0),
        (700.0, 699.59453489189184, 1.0),
    ],
    20.0: [
        (-700.0, -9.5417315222034142, 0.0014358485957209906),
        (-200.0, -8.2761517254370687, 0.0050902952109319594),
        (-40.0, -6.5917357422356776, 0.027433141061606909),
        (-36.0, -6.4755023704525248, 0.030814494566322985),
        (-30.0, -6.2710738854058161, 0.037803952743067123),
        (-20.0, -5.7961951917898895, 0.060781877955099968),
        (-3.0, -2.5067837297325058, 0.6681233484462727),
        (-2.9, -2.4393040206488013, 0.68146255773708075),
        (-2.5, -2.156167067402543, 0.73390246384312963),
        (-2.0, -1.7736136328585155, 0.79529775719391793),
        (-1.0, -0.92604159685576598, 0.89347408997823869),
        (1.0, 0.96851041719490328, 0.98079231542406616),
        (3.0, 2.9514603900362389, 0.99725846896533),
        (17.56, 17.508706706926209, 0.99999999868623892),
        (18.0, 17.948706706458559, 0.99999999915389002),
        (40.0, 39.948706705612449, 1.0),
        (200.0, 199.94870670561245, 1.0),
        (700.0, 699.94870670561245, 1.0),
    ],
    50.0: [
        (-700.0, -10.45668391521121, 0.0014377715341874723),
        (-200.0, -9.1876897457529054, 0.0051145454974771418),
        (-40.0, -7.4821412955335775, 0.028152523318377847),
        (-36.0, -7.3626704814474522, 0.031725088492633315),
        (-30.0, -7.1515166022049872, 0.039183732839546646),
        (-20.0, -6.6542038308645033, 0.064429580750059265),
        (-7.0, -4.8995934823750842, 0.32718479831775782),
        (-4.6, -3.8367264215625734, 0.58145680238231201),
        (-3.0, -2.7362359505295384, 0.79070606166801682),
        (-2.9, -2.656578748392374, 0.80238595879356733),
        (-2.5, -2.3267729385454903, 0.84567933622483016),
        (-2.0, -1.8921758622032121, 0.8909911101022433),
        (-1.0, -0.96783022434982413, 0.95132288475007787),
        (1.0, 0.98737288020547209, 0.99251100434353734),
        (3.0, 2.9808328689259396, 0.99896607292349049),
        (17.56, 17.539797293175141, 0.99999999950733964),
        (18.0, 17.979797292999773, 0.99999999968270881),
        (40.0, 39.979797292682484, 1.0),
        (200.0, 199.97979729268249, 1.0),
        (700.0, 699.97979729268252, 1.0),
    ],
    100.0: [
        (-700.0, -11.148826779529015, 0.001439216236839478),
        (-200.0, -9.8772597022933777, 0.0051328741357567036),
        (-40.0, -8.1554374328958747, 0.028716964108792816),
        (-36.0, -8.0334191025378665, 0.032443702691799046),
        (-30.0, -7.816925620239406, 0.040285832025552852),
        (-20.0, -7.3013249657078552, 0.067464224242319223),
        (-7.0, -5.3439852704143211, 0.38684414995061006),
        (-4.6, -4.08975058670263, 0.67595188957289254),
        (-3.0, -2.8470531017039069, 0.8659075220615049),
        (-2.9, -2.7600063805922734, 0.87495742128682086),
        (-2.5, -2.4033995710857621, 0.90695501718795479),
        (-2.0, -1.9418120076234133, 0.93776344815318968),
        (-1.0, -0.98339648611035646, 0.97435228570302534),
        (1.0, 0.99368234249033849, 0.99628828442655692),
        (3.0, 2.9904573035799826, 0.99949275185528264),
        (17.56, 17.5499496643878, 0.99999999975869691),
        (18.0, 17.989949664301907, 0.99999999984459209),
        (40.0, 39.989949664146501, 1.0),
        (200.0, 199.98994966414651, 1.0),
        (700.0, 699.98994966414648, 1.0),
    ],
    1000.0: [
        (-700.0, -13.448085941542308, 0.001444010939715163),
        (-200.0, -12.167932100310541, 0.0051943861592362488),
        (-40.0, -10.389473073873736, 0.030754535646987262),
        (-36.0, -10.258204099948593, 0.035068611040070141),
        (-30.0, -10.021960534198353, 0.044413790659857885),
        (-20.0, -9.434727709068083, 0.079898498003320537),
        (-7.0, -6.4531716159401205, 0.66424104426217478),
        (-4.6, -4.5131207765053896, 0.92161815202814257),
        (-3.0, -2.9814502981512581, 0.98099500129405492),
        (-2.9, -2.88326356767777, 0.98271387938121169),
        (-2.5, -2.4890098664733782, 0.98821845368871331),
        (-2.0, -1.9936772587541898, 0.99275571698425602),
        (-1.0, -0.99828782706406471, 0.99729829678813775),
        (1.0, 0.99936791246850287, 0.99963179085315723),
        (3.0, 2.9990493827709703, 0.99995012063240429),
        (17.56, 17.55899949969011, 0.99999999997630495),
        (18.0, 17.998999499681677, 0.99999999998473954),
        (40.0, 39.998999499666418, 1.0),
        (200.0, 199.99899949966641, 1.0),
        (700.0, 699.99899949966641, 1.0),
    ],
}


@pytest.mark.parametrize(
    "alpha,lam,val,slope", [(a, *cell) for a, cells in _MPMATH.items() for cell in cells]
)
def test_general_route_matches_mpmath(alpha, lam, val, slope):
    ev = PressureEval(alpha)
    assert pressure(ev, lam) == pytest.approx(val, rel=1e-12, abs=1e-12)
    if abs(lam) <= 200.0:
        assert pressure_derivatives(ev, lam)[0] == pytest.approx(slope, rel=1e-11)


# (lambda, Lambda, Lambda', Lambda'') by mpmath's hyp2f1 at 60 digits near
# lambda = 0, where Lambda and Lambda' must keep 1e-13 and Lambda'' 1e-12 of
# their relative precision: the closed form for alpha = 2 cancels there.
_MPMATH_NEAR_ZERO = {
    0.5: [
        (-1e-12, -3.333333333333111e-13, 0.33333333333328889, 0.044444444444446561),
        (1e-12, 3.3333333333335555e-13, 0.33333333333337778, 0.044444444444442328),
        (1e-08, 3.3333333355555556e-9, 0.33333333377777778, 0.044444444423280423),
        (-5e-05, -1.6666611111067021e-5, 0.33333111110846571, 0.044444550258730149),
        (0.000101, 3.3666893355192114e-5, 0.33333782221142671, 0.044444230664082405),
        (-0.001, -0.00033331111075857144, 0.33328888783146386, 0.044446558518443789),
        (0.01, 0.0033355552008822115, 0.33377767118184675, 0.044423047694794124),
        (0.1, 0.033555183462003485, 0.33776642180811429, 0.04420960785072474),
    ],
    1.0: [
        (-1e-12, -4.9999999999995832e-13, 0.49999999999991667, 0.083333333333333333),
        (1e-12, 5.0000000000004166e-13, 0.50000000000008333, 0.083333333333333333),
        (1e-08, 5.0000000041666668e-9, 0.50000000083333333, 0.083333333333333333),
        (-5e-05, -2.4999895833333337e-5, 0.49999583333333351, 0.083333333322916667),
        (0.000101, 5.0500425041666632e-5, 0.50000841666666524, 0.083333333290829167),
        (-0.001, -0.00049995833333368057, 0.49991666666805556, 0.083333329166666832),
        (0.01, 0.0050041666631944501, 0.50083333194444775, 0.0833329166683201),
        (0.1, 0.050416631949954878, 0.50833194477504962, 0.083291683195273042),
    ],
    1.5: [
        (-1e-12, -5.9999999999994856e-13, 0.59999999999989714, 0.10285714285714514),
        (1e-12, 6.0000000000005142e-13, 0.60000000000010286, 0.10285714285714057),
        (1e-08, 6.0000000051428573e-9, 0.60000000102857143, 0.10285714283428571),
        (-5e-05, -2.9999871428523814e-5, 0.59999485714000025, 0.10285725712814099),
        (0.000101, 6.0600524622464597e-5, 0.60001038855976826, 0.10285691193995232),
        (-0.001, -0.0005999485710481096, 0.59989714171624788, 0.1028594226849102),
        (0.01, 0.0060051424712854151, 0.60102845518086539, 0.10283369713328011),
        (0.1, 0.060513855747267022, 0.61027232560094534, 0.10256979324552519),
    ],
    2.0: [
        (-1e-12, -6.666666666666111e-13, 0.66666666666655556, 0.11111111111111852),
        (1e-12, 6.6666666666672221e-13, 0.66666666666677778, 0.1111111111111037),
        (1e-08, 6.6666666722222224e-9, 0.66666666777777778, 0.11111111103703704),
        (-5e-05, -3.3333194444290129e-5, 0.66666111110185216, 0.11111148146296293),
        (0.000101, 6.7333900054283516e-5, 0.66667788885110486, 0.1111103628874003),
        (-0.001, -0.00066661110987716052, 0.66655555185432106, 0.1111185111108175),
        (0.01, 0.0066722209814829624, 0.66777740493901313, 0.11103629659357171),
        (0.1, 0.067220926083984372, 0.67773827961851434, 0.11029662347400543),
    ],
    3.0: [
        (-1e-12, -7.4999999999994373e-13, 0.7499999999998875, 0.11250000000001875),
        (1e-12, 7.5000000000005623e-13, 0.7500000000001125, 0.11249999999998125),
        (1e-08, 7.5000000056250002e-9, 0.750000001125, 0.1124999998125),
        (-5e-05, -3.7499859374609381e-5, 0.74999437497656286, 0.11250093747840386),
        (0.000101, 7.5750573803030236e-5, 0.75001136240436266, 0.11249810616188102),
        (-0.001, -0.00074994374687571994, 0.74988749062787977, 0.11251874136037995),
        (0.01, 0.007505621867807494, 0.75112405962361458, 0.11231163739322901),
        (0.1, 0.075559303643250806, 0.76115340218758013, 0.11053989165903935),
    ],
    100.0: [
        (-1e-12, -9.9009900990098527e-13, 0.99009900990098049, 0.0096107455824298476),
        (1e-12, 9.9009900990099488e-13, 0.99009900990099971, 0.0096107455824117384),
        (1e-08, 9.9009900994904385e-9, 0.99009900999709755, 0.0096107454918748764),
        (-5e-05, -4.950493848142889e-5, 0.99009852935239257, 0.0096111983220202452),
        (0.000101, 0.00010000004901805305, 0.99009998054011235, 0.0096098311095205457),
        (-0.001, -0.00099009420301876643, 0.99008939462677633, 0.0096198041808738199),
        (0.01, 0.009901469130523422, 0.99019466595992681, 0.0095205992202137194),
        (0.1, 0.099056478494651138, 0.99101612149299703, 0.0087443360988238737),
    ],
}


@pytest.mark.parametrize(
    "alpha,lam,val,slope,curv", [(a, *cell) for a, cells in _MPMATH_NEAR_ZERO.items() for cell in cells]
)
def test_general_route_near_zero_matches_mpmath(alpha, lam, val, slope, curv):
    ev = PressureEval(alpha)
    assert pressure(ev, lam) == pytest.approx(val, rel=1e-13, abs=0.0)
    d1, d2 = pressure_derivatives(ev, lam)
    assert d1 == pytest.approx(slope, rel=1e-13, abs=0.0)
    assert d2 == pytest.approx(curv, rel=1e-12, abs=0.0)


def test_curvature_is_finite_and_nonnegative_in_the_upper_tail():
    ev = PressureEval(2.0)
    for lam in (40.0, 200.0, 700.0):
        d2 = pressure_derivatives(ev, lam)[1]
        assert math.isfinite(d2) and d2 >= 0.0, lam


def test_general_route_at_half_in_the_upper_tail():
    assert pressure(PressureEval(0.5), 17.56) == pytest.approx(_CLOSED_FORMS[0.5](17.56), abs=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_general_route_next_to_an_integer(k):
    # 1/c series at c > 2: hyp2f1 there is 2e-5 off at alpha = 1 + 1e-12
    exact = PressureEval(float(k))
    for alpha in (k - 1e-12, k + 1e-12, k + 1e-9):
        ev = PressureEval(alpha)
        for lam in (1.5, 3.0, 17.56, 40.0, 700.0):
            assert pressure(ev, lam) == pytest.approx(pressure(exact, lam), rel=1e-9, abs=1e-9)
            assert pressure_derivatives(ev, lam)[0] == pytest.approx(
                pressure_derivatives(exact, lam)[0], rel=1e-9
            )


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.sampled_from(sorted(_MPMATH) + [0.01, 1.25, 1 + 1e-12, 7.0, 20.5, 101.0, 1e6]),
    lam=st.floats(min_value=-1e4, max_value=700.0),
)
def test_general_slope_is_a_float_in_the_unit_interval(alpha, lam):
    ev = PressureEval(alpha)
    val = pressure(ev, lam)
    d1, _ = pressure_derivatives(ev, lam)
    assert type(val) is float and math.isfinite(val)
    assert type(d1) is float and 0.0 < d1 <= 1.0


def test_general_route_takes_large_alpha():
    # pa:beta=-0.99 has alpha = (2+beta)/(1+beta) = 101 and no closed form
    ev = PressureEval(chain.model_from_name("pa:beta=-0.99").alpha)
    assert pressure(ev, 0.0) == 0.0
    assert rate(ev, 1.0).rate == pytest.approx(math.log(101 / 100), rel=1e-15)
    for x in (0.05, 0.5, 0.9):  # lambda* in the lower series, near its switch, in the Laplace band
        r = rate(ev, x)
        assert r.rate > 0.0
        assert pressure_derivatives(ev, r.lambda_star)[0] == pytest.approx(x, rel=1e-12)
    # one ulp either side of the switches at lambda = -log(alpha) and -log 2
    for lam in (-math.log(101.0), -math.log(2.0)):
        lo, hi = math.nextafter(lam, -math.inf), math.nextafter(lam, math.inf)
        assert pressure(ev, lo) == pytest.approx(pressure(ev, hi), rel=1e-14)
        assert pressure_derivatives(ev, lo)[0] == pytest.approx(pressure_derivatives(ev, hi)[0], rel=1e-13)


def _brentq_root(ev, x):
    """lambda* by brentq on the first component of pressure_derivatives,
    as rate solved it before its Newton iteration."""

    def f(lam):
        return pressure_derivatives(ev, lam)[0] - x

    lo, hi = -1.0, 1.0
    while f(lo) > 0.0:
        lo *= 2.0
    while f(hi) < 0.0:
        hi *= 2.0
    return brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16)


def _slope_jitter(ev, lam):
    """Spread of Lambda' over the nine floats nearest lambda: no root
    finder resolves x more finely than this."""
    grid = [lam]
    for _ in range(4):
        grid = [math.nextafter(grid[0], -math.inf), *grid, math.nextafter(grid[-1], math.inf)]
    slopes = [pressure_derivatives(ev, point)[0] for point in grid]
    return max(slopes) - min(slopes)


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 20.0])
def test_rate_is_bit_identical_to_the_full_derivative_route(alpha, monkeypatch):
    # rate solves Lambda' = x by Newton on the exact Lambda'': lambda* is a
    # root of the full-derivative route's Lambda', as close as brentq gets
    # up to that Lambda''s own jitter (1e-14 from hyp2f1 at alpha = 20,
    # x = 0.74), the rate is lambda* x - Lambda(lambda*) to the bit, and a
    # call takes at most 7 evaluations of the route on average
    ev = PressureEval(alpha)
    xs = [0.05 + 0.9 * k / 13 for k in range(14)] + [mean_slope(alpha), 0.5 * mean_slope(alpha)]
    xs = [x for x in xs if x < min(alpha, 1.0) - 0.02]
    general, calls = pressure_mod._general, []
    monkeypatch.setattr(pressure_mod, "_general", lambda a, lam: calls.append(lam) or general(a, lam))
    points = [rate(ev, x) for x in xs]
    monkeypatch.undo()
    assert len(calls) <= 7 * len(xs)
    for x, r in zip(xs, points):
        assert r.rate == r.lambda_star * x - pressure(ev, r.lambda_star), x
        residual = abs(pressure_derivatives(ev, r.lambda_star)[0] - x)
        reference = abs(pressure_derivatives(ev, _brentq_root(ev, x))[0] - x)
        assert residual <= reference + _slope_jitter(ev, r.lambda_star), x
