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
    # Draw 95.
    ('{name} is not finite: {value!r}', DomainError,
     'rejected_T_roots is not finite: nan', dict(
         s=5.572898056201674e-50, r_T=4.536970069865559e+223, r_I=5.4625421659309735e-73, d_T=5.513689420481065e-26,
         d_I=5.640390656860512e-125, T_max=1.625526240970061e+33, beta=1.5713066891798098e-107, p=5.492705832632262e+209,
         c=2.62146044505621e-34, q=2.628037115150523e-118, eta=0.14499061879251796, epsilon=0.5754328025653888,
     )),
    # Draw 339.
    ('infected equilibrium is not finite: I* = {I!r}, V* = {V!r}', DomainError,
     'infected equilibrium is not finite: I* = 1.8777305503341507e+146, V* = inf', dict(
         s=3.1693015274615063e+22, r_T=1.4473584236224978e+200, r_I=2.7498099000820973e+253, d_T=2.2822262574862314e-259,
         d_I=9.187894283141097e-31, T_max=1.8777305503341507e+146, beta=1.4120012460619383e-217, p=3.0811586000277997e+280,
         c=3.055924497565444e-30, q=6.054445986066423e-27, eta=0.51758757515859, epsilon=0.785700248044195,
     )),
    # Draw 366.
    ('closed-form characteristic coefficients deviate from the minor expansion by relative {rel!r}', IntegrityError,
     'closed-form characteristic coefficients deviate from the minor expansion by relative nan', dict(
         s=5e-324, r_T=4.6223302061833887e+219, r_I=3.3059523348595414e+149, d_T=9.316762722621713e-13,
         d_I=1.0595580597511762e-188, T_max=330396535.9439614, beta=1.9279338232457053e-31, p=1.4943075354251498e+220,
         c=5.988052947406038e-49, q=6.481369256961524e-11, eta=0.7061941733245395, epsilon=0.36173802508091113,
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
    assert len(written) == len(set(written)) == 17
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
