"""One witness per refusal on the sweep's path.

Each refusal of the scalar route is written once, as an (exception class,
message, failing predicate) triple in a table beside its function, and the
sweep kernel folds the same predicates into its masks.  WITNESSES holds,
for each triple's message, the first valid set of the whole-domain draws on
which that refusal is the one the scalar route raises.  The draws come from
random.Random(7): per field in PARAMETER_NAMES order, eta and epsilon are
random(); any other field is, one time in ten, 0.0 or 5e-324 at even odds,
else 10 ** uniform(-300, 300).  On each witness, the public functions raise
that class and message, and a two-point sweep through the set marks its
cell invalid_params.
"""

import pytest

from hcvdyn import (
    SWEEP_OUTPUTS,
    Axis,
    DomainError,
    IntegrityError,
    ModelParameters,
    SweepSpec,
    characteristic_coefficients,
    derive_constants,
    infected_equilibrium,
    r0_from_T0,
    run_sweep,
    uninfected_equilibrium,
)
from hcvdyn import equilibria, model, reproduction, stability
from hcvdyn.equilibria import REGIME_UNIQUE
from hcvdyn.sweep import STATUS_INVALID

# Every refusal table, found by name: a new table needs witnesses too.
TABLES = [
    table for module in (model, equilibria, reproduction, stability)
    for name, table in vars(module).items() if name.endswith("_REFUSALS")
]

# (message template, exception class, message raised, fields)
WITNESSES = [
    # Draw 1.
    ('reproduction number is not finite: {R0!r}', DomainError,
     'reproduction number is not finite: -inf', dict(
         s=5.828701288563944e-127, r_T=4.73524928334837e-230, r_I=4.740405267313207e+189, d_T=9.122170756660906e+48,
         d_I=2.74489436371476e-77, T_max=4.713950133103259e-263, beta=0.0, p=3.592389361848543e-44,
         c=2.1732921162864507e+51, q=7.247665115852482e-121, eta=0.7943794815224912, epsilon=0.6989944337295713,
     )),
    # Draw 2.
    ('derived constants are not finite for this parameter set', DomainError,
     'derived constants are not finite for this parameter set', dict(
         s=4.510515246876787e+44, r_T=1.2091977880302932e+225, r_I=5.789738304514491e-128, d_T=6.90982348082502e-230,
         d_I=1.9255630303276417e+154, T_max=2.3870432366756736e-07, beta=5e-324, p=6.539795474727615e+43,
         c=1.7721795015766585e-112, q=4.187224659988335e+56, eta=0.5798952042824922, epsilon=0.45620533130141305,
     )),
    # Draw 3.
    ('reproduction number is undefined when d_I + q = 0 or c (d_I + q) underflows to 0', DomainError,
     'reproduction number is undefined when d_I + q = 0 or c (d_I + q) underflows to 0', dict(
         s=6.436608060401028e+266, r_T=3.099725847940153e+98, r_I=5e-324, d_T=7.203833722810099e+295,
         d_I=5.718988937731455e-130, T_max=1.5546389005001165e+101, beta=0.0, p=1.8091588001970008e-230,
         c=5e-324, q=3.7059556537015355e-152, eta=0.3909497031332271, epsilon=0.8714219741262994,
     )),
    # Draw 4.
    ('uninfected equilibrium T0 is not finite: {T0!r}', DomainError,
     'uninfected equilibrium T0 is not finite: nan', dict(
         s=0.0, r_T=1.07224953089111e+230, r_I=2.4585657040803394e+218, d_T=1.5062960145724462e-51,
         d_I=3.2786595217865794e+230, T_max=3.568974744016458e-210, beta=1.4932072562682324e-161, p=9.498132085987084e-10,
         c=4.446021710892963e-143, q=0.0, eta=0.3692535728947254, epsilon=0.566341223706392,
     )),
    # Draw 6.
    ('quadratic coefficient must be positive, got {k!r}', DomainError,
     'quadratic coefficient must be positive, got 0.0', dict(
         s=1.465389990579169e-82, r_T=5e-324, r_I=1.3498676781951094e-211, d_T=2.714736188083812e-92,
         d_I=5.073859737075856e-227, T_max=7.271650931439692e+295, beta=1.9989128035371942e-10, p=0.0,
         c=7.147185109364649e-142, q=7.297369141857223e-204, eta=0.023095721045248152, epsilon=0.9509855728747021,
     )),
    # Draw 16.
    ('uninfected equilibrium T0 underflows: the root is positive but below 5e-324', DomainError,
     'uninfected equilibrium T0 underflows: the root is positive but below 5e-324', dict(
         s=5e-324, r_T=5e-324, r_I=3.0978926965499866e-97, d_T=1.0036226239320796e+256,
         d_I=3.4267303983703526e-223, T_max=1.1526612060917378e-157, beta=7.403804773268096e-204, p=0.0,
         c=1.0074853217448153e-117, q=9.473290050527154e-127, eta=0.5000885998618394, epsilon=0.17789988421292868,
     )),
    # Draw 18.
    ('derived constants require r_I r_T > 0, got r_T = {params.r_T!r}, r_I = {params.r_I!r}', DomainError,
     'derived constants require r_I r_T > 0, got r_T = 0.0, r_I = 5e-324', dict(
         s=3.398662918631683e-92, r_T=0.0, r_I=5e-324, d_T=8.869766067265467e-203,
         d_I=5e-324, T_max=2.1182574631382874e+102, beta=2.126965254708183e-155, p=4.696410353771113e-25,
         c=3.1243878498204624e-33, q=1.1801032803171894e+277, eta=0.9726229979463763, epsilon=0.5470733741189084,
     )),
    # Draw 22.
    ('T0 must be positive, got {T0!r}', DomainError,
     'T0 must be positive, got 0.0', dict(
         s=0.0, r_T=1.3505673587726618e-177, r_I=2.760936776154619e+285, d_T=3.4378453757405224e-71,
         d_I=1.6517245406757963e+110, T_max=1.5290069763211172e+70, beta=3.041527242177759e-254, p=2.312964640514263e-148,
         c=4.469745291292075e-118, q=3.0305956460694204e-293, eta=0.06066101406364177, epsilon=0.268772765789248,
     )),
    # Draw 45.
    ('uninfected equilibrium residual {residual!r} exceeds 1e-09', IntegrityError,
     'uninfected equilibrium residual 1.0 exceeds 1e-09', dict(
         s=2.884526195185903e-276, r_T=2.211142744821582e-251, r_I=3.8163817342854895e+166, d_T=3.6220848030539077e-268,
         d_I=5.218886025070775e-74, T_max=5.14550474467114e-219, beta=4.726173361825469e+297, p=9.855281781519483e+188,
         c=1.0885655614976662e+289, q=9.628820011588624e+273, eta=0.9160412236673822, epsilon=0.1651115170578208,
     )),
    # Draw 82.
    ('vector field at T0 leaves the float range', DomainError,
     'vector field at T0 leaves the float range', dict(
         s=5e-324, r_T=2.4325398500573027e+260, r_I=1.6769973511279722e+233, d_T=2.2238637522777676e-32,
         d_I=5e-324, T_max=1.0528971089342399e+77, beta=7.369607323865812e-97, p=3.3340576157700846e-14,
         c=4.5785903267150926e-215, q=1.0860215824077182e-266, eta=0.7137244228376275, epsilon=0.5533740884759797,
     )),
    # Draw 94.
    ('derived constant H is lost: r_I r_T overflows to inf while A = {A!r} is not 0', DomainError,
     'derived constant H is lost: r_I r_T overflows to inf while A = 2.068146193640278e+182 is not 0', dict(
         s=1.6198142404795945e-98, r_T=1.6083541711989907e+105, r_I=9.897948593671876e+209, d_T=45831529519.02216,
         d_I=9.276100661234198e+145, T_max=1.390108734913828e-15, beta=1.3527374411954885e+125, p=2.3098472734607587e-224,
         c=3.929013922548197e-298, q=3.167624707211158e+51, eta=0.49788318870584225, epsilon=0.9627424328992099,
     )),
    # Draw 95.
    ('{name} is not finite: {value!r}', DomainError,
     'rejected_T_roots is not finite: nan', dict(
         s=5.572898056201674e-50, r_T=4.536970069865559e+223, r_I=5.4625421659309735e-73, d_T=5.513689420481065e-26,
         d_I=5.640390656860512e-125, T_max=1.625526240970061e+33, beta=1.5713066891798098e-107, p=5.492705832632262e+209,
         c=2.62146044505621e-34, q=2.628037115150523e-118, eta=0.14499061879251796, epsilon=0.5754328025653888,
     )),
    # Draw 1299.
    ('no uninfected steady state: r_T = 0, d_T = 0 and s > 0', DomainError,
     'no uninfected steady state: r_T = 0, d_T = 0 and s > 0', dict(
         s=5e-324, r_T=0.0, r_I=2.09083571232706e-28, d_T=0.0,
         d_I=5.308952349615495e+80, T_max=4.248586748156702e-71, beta=2.6634864115600027e+288, p=1.8083731615767018e+281,
         c=4.819043607377779e+98, q=1.1012525202951592e+192, eta=0.37993986107836764, epsilon=0.14439160796338968,
     )),
    # Draw 1342.
    ('radical constant F is undefined: r_I r_T H underflows to 0', DomainError,
     'radical constant F is undefined: r_I r_T H underflows to 0', dict(
         s=2.686832657515577e-130, r_T=3.198873558841508e-138, r_I=2.5934128598481042e-132, d_T=1.1495198498596028e-208,
         d_I=3.400123170960953e+122, T_max=3.117306486710788e-270, beta=1.099827276545794e-111, p=7.364735814925847e+244,
         c=2.5707576291202293e+128, q=2.597875564739116e+146, eta=0.3633308069941884, epsilon=0.48464449220897765,
     )),
    # Draw 1583.
    ('radical T* {closed_T!r} deviates from quadratic root {T_star!r} by relative {closed_diff!r}', IntegrityError,
     'radical T* 0.0 deviates from quadratic root 8.387681008969314e-266 by relative 1.0', dict(
         s=1.9868860402564492e-233, r_T=5.9741810418835434e-242, r_I=7.431133223150112e+74, d_T=2.368814500851648e+32,
         d_I=1.3835788767442456e-90, T_max=1.6949817018941011e-264, beta=7.962479257254006e-13, p=6.37927867972775e+250,
         c=7.296424408185082e+237, q=7.84214568592925e-151, eta=0.09604468691424639, epsilon=0.5665607986977953,
     )),
    # Draw 3801.
    ('infected equilibrium is not finite: I* = {I!r}, V* = {V!r}', DomainError,
     'infected equilibrium is not finite: I* = 4.1891341159412904e-116, V* = inf', dict(
         s=7.585723250047552e-09, r_T=1.4860887873554295e-102, r_I=5.1363904907371114e+95, d_T=9.04808245525503e+183,
         d_I=416799.86655813444, T_max=4.1891341159412904e-116, beta=1.120616812579881e-238, p=9.065096867292982e+189,
         c=4.14421311778281e-275, q=2.803118341080065e-217, eta=0.04889203575479961, epsilon=0.25172670824511256,
     )),
    # Draw 4797.
    ('closed-form characteristic coefficients deviate from the minor expansion by relative {rel!r}', IntegrityError,
     'closed-form characteristic coefficients deviate from the minor expansion by relative nan', dict(
         s=1.223457910148676e-57, r_T=7.118347680103437e-85, r_I=7.637069174457274e+234, d_T=6.151251768397176e+115,
         d_I=2.9053198426731617e+233, T_max=2.72812933970671e-79, beta=2.5352431315729593e-132, p=3.088548592564939e+104,
         c=3.810899545993535e+22, q=1.8758514722808977e+28, eta=0.8168764197956491, epsilon=0.19656807300703538,
     )),
    # Draw 5657.
    ('characteristic coefficients need T_max**2 and T* T_max within the float range', DomainError,
     'characteristic coefficients need T_max**2 and T* T_max within the float range', dict(
         s=8.296125380563573e+70, r_T=5.756513460064492e-59, r_I=5.021642736102511e-155, d_T=2.835765902504153e+275,
         d_I=1.6787811950498528e-199, T_max=4.034003716459238e-179, beta=0.0, p=2.720967483441277e+277,
         c=1.7696945387407553e+235, q=1.8220659786939502e-171, eta=0.9974783054169897, epsilon=0.4177683470802457,
     )),
]


def scalar_route(params):
    """The public functions in the order a sweep cell takes them."""
    T0 = uninfected_equilibrium(params).state.T
    r0_from_T0(params, T0)
    report = infected_equilibrium(params)
    if report.regime == REGIME_UNIQUE:
        characteristic_coefficients(params, report.candidates[0])


def test_every_refusal_has_a_witness():
    written = [message for table in TABLES for _, message, _ in table]
    assert len(written) == len(set(written)) == 18
    assert sorted(written) == sorted(template for template, *_ in WITNESSES)


@pytest.mark.parametrize("template, error, message, fields", WITNESSES, ids=[w[0][:40] for w in WITNESSES])
def test_witness_is_refused_by_both_routes(template, error, message, fields):
    params = ModelParameters(**fields)
    with pytest.raises(error) as raised:
        scalar_route(params)
    assert type(raised.value) is error
    assert str(raised.value) == message
    # eta's cell is the axis' first point, eta itself; the second lies in (eta, 1).
    grid = run_sweep(SweepSpec(params, Axis("eta", params.eta, 0.5 * (1.0 + params.eta), 2), outputs=SWEEP_OUTPUTS))
    assert grid.axis1_values[0] == params.eta
    assert grid.status[0] == STATUS_INVALID


# r_I r_T overflows to inf, so H = (A / (r_I r_T)) (A + r_T - r_I) reads -0.0
# where the exact H is -1.976e-178; infected_equilibrium used to solve its
# quadratic as a linear equation here.
LOST_H = ModelParameters(
    s=5.002174663749923e+273, r_T=1.504390154324462e+187, r_I=1.1332676081387775e+248, d_T=3.442618615227103e+29,
    d_I=4.84864810716622e-271, T_max=3.2828706896700976e-30, beta=4.947960809299864e+86, p=2.4330049502052083e-271,
    c=2.436644834658434e-224, q=1.57656396116036e-94, eta=0.29777186554478685, epsilon=0.7390325049962496,
)
# H reads -0.0 because A / (r_I r_T) underflows while r_I r_T stays finite
# (t0pin.scn of the CI workflow): that H is answered.
UNDERFLOWED_H = ModelParameters(
    s=1.6059484463526526e+164, r_T=1.0378895204753431e+48, r_I=8.263063001673519e+90, d_T=2.709505887367695e-210,
    d_I=5e-324, T_max=6.637147734151798e-104, beta=3.392226303104842e-238, p=2.850730940109298e+232,
    c=1.6417531631418575e+131, q=7.429175374854339e-42, eta=0.8805305462691764, epsilon=0.04672381254907876,
)


def test_an_h_lost_to_overflow_is_refused():
    assert repr(model._constants(LOST_H)[3]) == "-0.0"
    with pytest.raises(DomainError, match="^derived constant H is lost: r_I r_T overflows to inf"):
        derive_constants(LOST_H)
    with pytest.raises(DomainError, match="^derived constant H is lost"):
        infected_equilibrium(LOST_H)
    assert repr(derive_constants(UNDERFLOWED_H).H) == "-0.0"
