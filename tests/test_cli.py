import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import fracml
import fracml.cli as cli
import fracml.mittag as mittag
from fracml.cli import main
from fracml.kinetics import (SOLVERS, THEOREMS, VARIANTS, Forcing,
                             KineticProblem, solve_theorem1)
from fracml.mittag import MLParameters, SeriesEvaluation, TwoParamML, ml2
from fracml.specfun import k_gamma

REPO = Path(__file__).resolve().parent.parent

DB_FLAGS = ["--N0", "0.05", "--gamma", "2", "--tau", "1", "--k", "2",
            "--alpha", "6", "--beta", "7", "--d", "3"]
# q = 2 > 1 + alpha/k: the forcing series diverges at every t > 0.
DIVERGENT_FLAGS = ["--theorem", "1", "--variant", "stated", "--N0", "0.05",
                   "--gamma", "2", "--tau", "2", "--k", "1", "--alpha", "0.5",
                   "--beta", "7", "--d", "3", "--nu", "1", "--t-max", "0.5"]
# The database set's coefficients with a fast removal rate (--d, --a): the
# inner factors of these solves cancel and take the contour.
STIFF_FLAGS = ["--N0", "0.05", "--gamma", "2", "--tau", "1", "--k", "2",
               "--alpha", "6", "--beta", "7", "--t-max", "1"]
# eval-ml points whose value comes from the contour, most of them with the
# pole residues: (alpha, beta, x, the CSV row before its ",true").
CONTOUR_POINTS = [
    ("1.5", "1", "-40", "-0.0099309654786934355,36,7.8319955496192333e-18"),
    ("1.8", "1", "-300", "-0.0031536759551233475,49,3.2878743967758906e-18"),
    ("2", "1", "-3000", "-0.20416991670227119,79,6.514263820966912e-19"),
    ("1.6245", "1", "-75.88",
     "0.0014896304694669358,38,6.7991857462774382e-18"),
    ("0.5", "1", "-30", "0.018795888861416758,751,2.7094336723422872e-17"),
    ("0.7", "0.7", "-40",
     "0.00015219492112585262,748,1.0981507571639696e-17"),
    ("0.5", "1", "-10", "0.056140992743822608,800,7.5232965053750764e-17"),
    ("0.5", "1", "-1000",
     "0.00056418930145338774,132,9.5366748771553275e-19"),
    ("1.2", "2.5", "-25", "0.044410235574744349,48,3.5826940177721725e-17"),
]
EVAL = "value,terms_used,tail_bound,converged\n"
OVERFLOWED = ("error: series did not converge: a term overflowed after {} "
              "terms\n")
BEYOND_RADIUS = ("error: series does not converge at this argument: it lies "
                 "beyond the radius of convergence\n")

# Every pinned CLI case: id -> (argv, exit code, stdout, stderr), each
# output whole and byte for byte.  test_case runs every row through
# cli.main, and through the program FRACML_EXE names when that is set.
# A new pinned case is one row.
CASES = {
    # The --help texts, formatted at 80 columns: the parser is the one
    # statement of every flag, and its help must not move when the flags
    # change form.
    "help": (["--help"], 0, (
        'usage: fracml [-h] {eval-ml,eval-kml,solve,verify,table} ...\n'
        '\n'
        'Mittag-Leffler functions and fractional kinetic equation solutions with\n'
        'residual verification.\n'
        '\n'
        'positional arguments:\n'
        '  {eval-ml,eval-kml,solve,verify,table}\n'
        '    eval-ml             evaluate E_{alpha,beta}(x)\n'
        '    eval-kml            evaluate the generalized k-Mittag-Leffler function\n'
        '    solve               tabulate a kinetic solution as CSV\n'
        '    verify              grid-refinement residual report as JSON\n'
        '    table               regenerate the three-set solution database\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
    ), ""),
    "help-eval-ml": (["eval-ml", "--help"], 0, (
        'usage: fracml eval-ml [-h] [--alpha ALPHA] [--beta BETA] [--x X]\n'
        '                      [--config CONFIG] [--out OUT] [--tol TOL]\n'
        '\n'
        'options:\n'
        '  -h, --help       show this help message and exit\n'
        '  --alpha ALPHA\n'
        '  --beta BETA\n'
        '  --x X\n'
        '  --config CONFIG  key=value file supplying defaults for any flag\n'
        '  --out OUT        output path (default: standard output)\n'
        '  --tol TOL        series tolerance (default 1e-12)\n'
    ), ""),
    "help-eval-kml": (["eval-kml", "--help"], 0, (
        'usage: fracml eval-kml [-h] [--k K] [--alpha ALPHA] [--beta BETA]\n'
        '                       [--gamma GAMMA] [--tau TAU] [--z Z] [--config CONFIG]\n'
        '                       [--out OUT] [--tol TOL]\n'
        '\n'
        'options:\n'
        '  -h, --help       show this help message and exit\n'
        '  --k K\n'
        '  --alpha ALPHA\n'
        '  --beta BETA\n'
        '  --gamma GAMMA\n'
        '  --tau TAU\n'
        '  --z Z\n'
        '  --config CONFIG  key=value file supplying defaults for any flag\n'
        '  --out OUT        output path (default: standard output)\n'
        '  --tol TOL        series tolerance (default 1e-12)\n'
    ), ""),
    "help-solve": (["solve", "--help"], 0, (
        'usage: fracml solve [-h] [--theorem THEOREM] [--variant VARIANT] [--N0 N0]\n'
        '                    [--gamma GAMMA] [--tau TAU] [--k K] [--alpha ALPHA]\n'
        '                    [--beta BETA] [--d D] [--a A] [--nu NU] [--t-max T_MAX]\n'
        '                    [--steps STEPS] [--config CONFIG] [--out OUT]\n'
        '\n'
        'options:\n'
        '  -h, --help         show this help message and exit\n'
        '  --theorem THEOREM  kinetic equation family: 1, 2 or 3\n'
        "  --variant VARIANT  'stated' or 'rederived' series weights\n"
        '  --N0 N0            initial number density (> 0)\n'
        '  --gamma GAMMA      Pochhammer base parameter (> 0)\n'
        '  --tau TAU          Pochhammer increment step, in (0,1) or integer\n'
        '  --k K              gamma deformation step (> 0)\n'
        '  --alpha ALPHA      series exponent step (> 0)\n'
        '  --beta BETA        series offset (> 0)\n'
        '  --d D              forcing rate constant (> 0)\n'
        '  --a A              removal rate constant (default: equal to --d)\n'
        '  --nu NU            fractional integral order (> 0)\n'
        '  --t-max T_MAX      right endpoint of the time grid\n'
        '  --steps STEPS      number of uniform grid steps (>= 1)\n'
        '  --config CONFIG\n'
        '  --out OUT\n'
    ), ""),
    "help-verify": (["verify", "--help"], 0, (
        'usage: fracml verify [-h] [--theorem THEOREM] [--variant VARIANT] [--N0 N0]\n'
        '                     [--gamma GAMMA] [--tau TAU] [--k K] [--alpha ALPHA]\n'
        '                     [--beta BETA] [--d D] [--a A] [--nu NU] [--t-max T_MAX]\n'
        '                     [--grids GRIDS] [--threshold THRESHOLD] '
        '[--config CONFIG]\n'
        '                     [--out OUT]\n'
        '\n'
        'options:\n'
        '  -h, --help            show this help message and exit\n'
        '  --theorem THEOREM     kinetic equation family: 1, 2 or 3\n'
        "  --variant VARIANT     'stated' or 'rederived' series weights\n"
        '  --N0 N0               initial number density (> 0)\n'
        '  --gamma GAMMA         Pochhammer base parameter (> 0)\n'
        '  --tau TAU             Pochhammer increment step, in (0,1) or integer\n'
        '  --k K                 gamma deformation step (> 0)\n'
        '  --alpha ALPHA         series exponent step (> 0)\n'
        '  --beta BETA           series offset (> 0)\n'
        '  --d D                 forcing rate constant (> 0)\n'
        '  --a A                 removal rate constant (default: equal to --d)\n'
        '  --nu NU               fractional integral order (> 0)\n'
        '  --t-max T_MAX         right endpoint of the time grid\n'
        '  --grids GRIDS         comma-separated step counts, each double the last\n'
        '  --threshold THRESHOLD\n'
        '                        max residual allowed on the finest grid '
        '(default 1e-5)\n'
        '  --config CONFIG\n'
        '  --out OUT\n'
    ), ""),
    "help-table": (["table", "--help"], 0, (
        'usage: fracml table [-h] [--t-max T_MAX] [--steps STEPS] [--config CONFIG]\n'
        '                    [--out OUT]\n'
        '\n'
        'options:\n'
        '  -h, --help       show this help message and exit\n'
        '  --t-max T_MAX\n'
        '  --steps STEPS\n'
        '  --config CONFIG\n'
        '  --out OUT\n'
    ), ""),
    **{f"eval-ml-{alpha}-{beta}-{x}":
       (["eval-ml", "--alpha", alpha, "--beta", beta, "--x", x], 0,
        f"{EVAL}{row},true\n", "")
       for alpha, beta, x, row in CONTOUR_POINTS},
    # E_{1,250}(2300): the terms before its peak underflow to 0.0, and two
    # of them once certified the value 0 after 9 terms.
    "eval-ml-past-underflowed-terms": (
        ["eval-ml", "--alpha", "1", "--beta", "250", "--x", "2300"], 0,
        EVAL + "6.4132358129087008e+161,4352,5.1968482081503295e-227,true\n",
        ""),
    # E_{1,1}(-250) = e**-250 on the extended path, 109 digits below its
    # largest terms; a working precision sized from the double sum's noise
    # once certified 9.8245059205782278e-52.
    "eval-ml-extended-exponential": (
        ["eval-ml", "--alpha", "1", "--beta", "1", "--x", "-250"], 0,
        EVAL + "2.6691902155412764e-109,946,3.7464546145022992e-129,true\n",
        ""),
    # E_{1/2,1}(30) = e**900 erfc(-30) is not a double: the series stops on
    # a term overflow long before the term budget.
    "eval-ml-overflow": (
        ["eval-ml", "--alpha", "0.5", "--beta", "1", "--x", "30"], 3,
        EVAL + "2.4736042850237856e+304,751,inf,false\n",
        OVERFLOWED.format(751)),
    # E_{1,beta}(0) = 1/Gamma(beta) exceeds the largest double: once a
    # certified inf, or an OverflowError traceback.
    "eval-ml-reciprocal-gamma--171.5": (
        ["eval-ml", "--alpha", "1", "--beta", "-171.5", "--x", "0"], 3,
        EVAL + "inf,1,0,false\n", OVERFLOWED.format(1)),
    "eval-ml-reciprocal-gamma--200.5": (
        ["eval-ml", "--alpha", "1", "--beta", "-200.5", "--x", "0"], 3,
        EVAL + "-inf,1,0,false\n", OVERFLOWED.format(1)),
    # log Gamma(1e306) exceeds the largest double: 1/Gamma is 0, where
    # math.lgamma's OverflowError once ended in a traceback.
    "eval-ml-log-gamma-beyond-range-x0": (
        ["eval-ml", "--alpha", "1", "--beta", "1e306", "--x", "0"], 0,
        EVAL + "0,1,0,true\n", ""),
    "eval-ml-log-gamma-beyond-range-x1": (
        ["eval-ml", "--alpha", "1", "--beta", "1e306", "--x", "1"], 0,
        EVAL + "0,9,0,true\n", ""),
    "eval-kml-log-gamma-beyond-range": (
        ["eval-kml", "--k", "1", "--alpha", "1", "--beta", "1e306",
         "--gamma", "1", "--tau", "1", "--z", "0"], 0, EVAL + "0,1,0,true\n",
        ""),
    # At k = gamma = q = 1 the function is E_{1,250}(2300): its terms before
    # the peak underflow to 0.0 as well, and two of them once certified the
    # value 0 after 9 terms.
    "eval-kml-past-underflowed-terms": (
        ["eval-kml", "--k", "1", "--alpha", "1", "--beta", "250", "--gamma",
         "1", "--tau", "1", "--z", "2300"], 0,
        EVAL + "6.4132358129095149e+161,4351,1.0398215414616211e-226,true\n",
        ""),
    # argparse before Python 3.14 took -1e-5 for a flag ("expected one
    # argument"); it is the value, as in --x=-1e-5.
    "eval-ml-negative-exponent": (
        ["eval-ml", "--alpha", "1", "--beta", "1", "--x", "-1e-5"], 0,
        EVAL + "0.99999000004999983,9,2.7557349843263518e-51,true\n", ""),
    "eval-ml-negative-exponent-joined": (
        ["eval-ml", "--alpha", "1", "--beta", "1", "--x=-1e-5"], 0,
        EVAL + "0.99999000004999983,9,2.7557349843263518e-51,true\n", ""),
    "eval-kml-negative-exponent": (
        ["eval-kml", "--k", "1", "--alpha", "1", "--beta", "1", "--gamma",
         "1", "--tau", "1", "--z", "-2.5e-3"], 0,
        EVAL + "0.99750312239746008,9,1.0515203919147061e-29,true\n", ""),
    "eval-kml-negative-exponent-joined": (
        ["eval-kml", "--k", "1", "--alpha", "1", "--beta", "1", "--gamma",
         "1", "--tau", "1", "--z=-2.5e-3"], 0,
        EVAL + "0.99750312239746008,9,1.0515203919147061e-29,true\n", ""),
    # alpha/k underflows to 0, so q == 1 + alpha/k and the radius is the
    # limit 1/k = 1e-300 (r log r -> 0), not a math domain error.
    "eval-kml-underflowing-radius": (
        ["eval-kml", "--k", "1e300", "--alpha", "1e-300", "--beta", "1.5",
         "--gamma", "1", "--tau", "1", "--z", "0.25"], 3,
        EVAL + "nan,0,inf,false\n", BEYOND_RADIUS),
    # q = 1 + alpha/k = 2: the radius is 1/4, and no term is summed at 0.5.
    "eval-kml-beyond-radius": (
        ["eval-kml", "--k", "1", "--alpha", "1", "--beta", "1", "--gamma",
         "1", "--tau", "2", "--z", "0.5"], 3,
        EVAL + "nan,0,inf,false\n", BEYOND_RADIUS),
    # alpha/k = 3.3e-11: the gamma argument never reaches 2 within the
    # budget, so the certificate is never tested.  An unconverged sum.
    "eval-kml-term-budget": (
        ["eval-kml", "--k", "3", "--alpha", "1e-10", "--beta", "1.5",
         "--gamma", "1", "--tau", "1", "--z", "0.25"], 3,
        EVAL + "1.5512162828227205,10000,inf,false\n",
        "error: series did not converge within the term budget\n"),
    # gamma/k = 1e10, 1e4, 1e300: log (gamma/k)_n as a difference of two
    # log-gammas lost its digits to cancellation, and these once printed
    # 2.2795813131490279 (off by 6.3e9 times its tail), 2.2796197505238829,
    # "1,9,0,true" and 2.2795813131488676 (specfun.log_gamma_rise).
    # TestLargeGamma compares each with mpmath.
    "eval-kml-large-gamma-1e10": (
        ["eval-kml", "--k", "1", "--alpha", "1", "--beta", "1", "--gamma",
         "1e10", "--tau", "1", "--z", "1e-10"], 0,
        EVAL + "2.2795853023705157,11,6.3283820582976726e-16,true\n", ""),
    "eval-kml-large-gamma-1e4": (
        ["eval-kml", "--k", "1", "--alpha", "1", "--beta", "1", "--gamma",
         "1e4", "--tau", "1", "--z", "1e-4"], 0,
        EVAL + "2.2796197505310127,11,6.363324801877254e-16,true\n", ""),
    "eval-kml-large-gamma-1e300": (
        ["eval-kml", "--k", "1", "--alpha", "1", "--beta", "1", "--gamma",
         "1e300", "--tau", "1", "--z", "1e-300"], 0,
        EVAL + "2.2795853023360944,11,6.3283820234382957e-16,true\n", ""),
    "solve-large-gamma": (
        ["solve", "--theorem", "1", "--variant", "stated", "--N0", "1",
         "--gamma", "1e10", "--tau", "1", "--k", "1", "--alpha", "1",
         "--beta", "1", "--d", "1e-3", "--nu", "1", "--t-max", "1e-10",
         "--steps", "1"], 0, "t,N\n0,1\n1e-10,2.2795853023703549\n", ""),
    # Fast-removal solves: every inner factor at t > 0 takes the contour.
    "solve-stiff-theorem1": (
        ["solve", *STIFF_FLAGS, "--theorem", "1", "--variant", "stated",
         "--d", "55", "--a", "55", "--nu", "2", "--steps", "2"], 0,
        "t,N\n0,0.0026596152026762184\n0.5,-0.0019012266609873154\n"
        "1,5.8709137100861808e-05\n", ""),
    "solve-stiff-theorem2": (
        ["solve", *STIFF_FLAGS, "--theorem", "2", "--variant", "rederived",
         "--d", "57.5", "--a", "57.5", "--nu", "1.37", "--steps", "2"], 0,
        "t,N\n0,0.0026596152026762184\n0.5,4.041899666294956e-06\n"
        "1,1.1365728703053989e-05\n", ""),
    # Eleven points: the batched grid path (mittag.ML2Rows).
    "solve-stiff-theorem3": (
        ["solve", *STIFF_FLAGS, "--theorem", "3", "--variant", "rederived",
         "--d", "3", "--a", "60", "--nu", "1.81", "--steps", "10"], 0,
        "t,N\n0,0.0026596152026762184\n"
        "0.10000000000000001,0.0010113228278259103\n"
        "0.20000000000000001,0.00030114689205672457\n"
        "0.29999999999999999,6.8069075247511565e-05\n"
        "0.40000000000000002,5.0963984532367282e-06\n"
        "0.5,-6.1978393292958364e-06\n"
        "0.59999999999999998,-5.2257130050564296e-06\n"
        "0.69999999999999996,-2.9269373630895877e-06\n"
        "0.80000000000000004,-1.4266415499304901e-06\n"
        "0.90000000000000002,-6.7688653401904723e-07\n"
        "1,-3.4506295323889983e-07\n", ""),
    # A 41-point stiff solve (rate 41.8, nu 1.66) on the batched grid path.
    "solve-pole-grid": (
        ["solve", *STIFF_FLAGS, "--theorem", "1", "--variant", "stated",
         "--d", "41.8", "--a", "41.8", "--nu", "1.66", "--steps", "40"], 0,
        "t,N\n"
        "0,0.0026596152026762184\n"
        "0.025000000000000001,0.0010594125145657579\n"
        "0.050000000000000003,-0.00077290588751240965\n"
        "0.074999999999999997,-0.001242664243459136\n"
        "0.10000000000000001,-0.00062932303640675228\n"
        "0.125,0.00011260917448743565\n"
        "0.14999999999999999,0.00038898427999389649\n"
        "0.17499999999999999,0.00022909216933570271\n"
        "0.20000000000000001,-3.5594578730062582e-05\n"
        "0.22500000000000001,-0.00015858721997375391\n"
        "0.25,-0.00011667885016654367\n"
        "0.27500000000000002,-1.8656988995861008e-05\n"
        "0.29999999999999999,3.8031869256628431e-05\n"
        "0.32500000000000001,3.2975861991824282e-05\n"
        "0.34999999999999998,4.9633972503383475e-07\n"
        "0.375,-2.1814273828801385e-05\n"
        "0.40000000000000002,-2.2066205335683795e-05\n"
        "0.42499999999999999,-1.029336594440983e-05\n"
        "0.45000000000000001,-5.1493498951544338e-07\n"
        "0.47499999999999998,1.4311212037295945e-06\n"
        "0.5,-1.800066108102746e-06\n"
        "0.52500000000000002,-5.0968250508044163e-06\n"
        "0.55000000000000004,-5.8017870461168515e-06\n"
        "0.57499999999999996,-4.4586994744093979e-06\n"
        "0.59999999999999998,-2.8638729617052056e-06\n"
        "0.625,-2.1469510063383853e-06\n"
        "0.65000000000000002,-2.2666929658231899e-06\n"
        "0.67500000000000004,-2.6051656983580268e-06\n"
        "0.69999999999999996,-2.6956180687261503e-06\n"
        "0.72499999999999998,-2.4883564577306554e-06\n"
        "0.75,-2.1840418941160337e-06\n"
        "0.77500000000000002,-1.9651669701272109e-06\n"
        "0.80000000000000004,-1.8707997057546236e-06\n"
        "0.82499999999999996,-1.8366547323278399e-06\n"
        "0.84999999999999998,-1.7912872475491113e-06\n"
        "0.875,-1.7110805823990759e-06\n"
        "0.90000000000000002,-1.613828736878021e-06\n"
        "0.92500000000000004,-1.5252791163913827e-06\n"
        "0.94999999999999996,-1.4561084797589969e-06\n"
        "0.97499999999999998,-1.4010740456746255e-06\n"
        "1,-1.3502284520834483e-06\n", ""),
    "solve-theorem1-unequal-rates": (
        ["solve", "--theorem", "1", "--variant", "stated", "--N0", "1",
         "--gamma", "1", "--tau", "1", "--k", "1", "--alpha", "1", "--beta",
         "1", "--d", "1", "--a", "2", "--nu", "2", "--t-max", "1", "--steps",
         "2"], 2, "", "error: --a must equal --d for theorem 1\n"),
    # A series argument beyond the double range leaves its point
    # unconverged: a t overflows to inf, (a t)**nu raises in the power, and
    # so does the forcing's (d t)**nu.  Each once exited 2 ("x must be
    # finite") or 3 with the platform's strerror text.
    "solve-overflowing-removal-argument": (
        ["solve", "--theorem", "1", "--variant", "stated", *DB_FLAGS[:-2],
         "--d", "1e200", "--nu", "2", "--t-max", "1e200", "--steps", "2"], 3,
        "", "error: series did not converge at t = 5e+199\n"),
    "solve-overflowing-removal-power": (
        ["solve", "--theorem", "3", "--variant", "stated", *DB_FLAGS,
         "--a", "1e300", "--nu", "1.5", "--t-max", "1", "--steps", "2"], 3,
        "", "error: series did not converge at t = 0.5\n"),
    "solve-overflowing-forcing-argument": (
        ["solve", "--theorem", "2", "--variant", "stated", "--N0", "1",
         "--gamma", "1", "--tau", "1", "--k", "1", "--alpha", "1", "--beta",
         "1", "--d", "1e200", "--nu", "2", "--t-max", "1", "--steps", "2"], 3,
        "", "error: series did not converge at t = 0.5\n"),
    # The inner factor E_{1,1}(-800) = e**-800 is not a normal double: it
    # does not converge on the per-point path, and the outer sum stops.
    "solve-unconverged-inner-factor": (
        ["solve", "--theorem", "1", "--variant", "stated", *DB_FLAGS[:-2],
         "--d", "800", "--nu", "1", "--t-max", "1", "--steps", "2"], 3, "",
        "error: series did not converge at t = 1\n"),
    # The grid times t_max * i / steps overflow: the message names the
    # flags, not the times (once "t must be finite and >= 0").
    "solve-overflowing-grid-times": (
        ["solve", "--theorem", "1", "--variant", "stated", *DB_FLAGS,
         "--nu", "1", "--t-max", "1e308", "--steps", "3"], 2, "",
        "error: --t-max times --steps overflows\n"),
    # beta/k underflows to 0: Gamma there is not a double, so the
    # coefficient stops every sum unconverged instead of raising.
    "solve-unrepresentable-coefficient": (
        ["solve", "--theorem", "1", "--variant", "stated", "--N0", "0.05",
         "--gamma", "1", "--tau", "1", "--k", "1e300", "--alpha", "1",
         "--beta", "1e-30", "--d", "1", "--nu", "1", "--t-max", "1",
         "--steps", "2"], 3, "", "error: series did not converge at t = 0\n"),
    # C_0 = 1/gamma_k(beta) is not a double: the solver returns NaN,
    # unconverged, at t = 0.  That is a convergence failure (exit 3), not a
    # usage error (exit 2).
    "verify-unconverged-solver": (
        ["verify", "--theorem", "1", "--variant", "stated", "--N0", "0.05",
         "--gamma", "2", "--tau", "1", "--k", "1e300", "--alpha", "6",
         "--beta", "1e-30", "--d", "3", "--nu", "1", "--t-max", "0.5",
         "--grids", "16,32"], 3, "",
        "error: solver or forcing failed to converge on a grid point\n"),
    # a**nu overflows while every (a t)**nu on the grid is a double: the
    # integral is taken on the grid rescaled by a.  This once exited 3 with
    # the platform's strerror text, where solve exits 0.
    "verify-overflowing-rate-power": (
        ["verify", "--theorem", "3", "--variant", "stated", *DB_FLAGS,
         "--a", "1e300", "--nu", "1.5", "--t-max", "1e-250", "--grids",
         "16,32"], 4,
        '{"grids": [16, 32], "max_residuals": [9.279826484998789e+70, '
        '4.664628529695574e+70], "l2_residuals": [6.698544536523282e-55, '
        '3.332716629508016e-55], "order_estimate": 0.9923356341437399, '
        '"pass": false}\n', ""),
    # Gamma(nu) is not a double at nu >= 171.62, and the weights m**(nu+1)
    # of 256 steps are not at nu = 130: each once ended in an overflow
    # message that names no flag, or in numpy warnings and "values must be
    # finite".
    "verify-nu-beyond-gamma-range": (
        ["verify", "--theorem", "1", "--variant", "stated", *DB_FLAGS,
         "--nu", "172", "--t-max", "0.5", "--grids", "16,32"], 2, "",
        "error: nu = 172 is too large for the fractional integral on 16 "
        "steps\n"),
    "verify-nu-beyond-weight-range": (
        ["verify", "--theorem", "1", "--variant", "stated", *DB_FLAGS,
         "--nu", "130", "--t-max", "0.5", "--grids", "64,128,256"], 2, "",
        "error: nu = 130 is too large for the fractional integral on 256 "
        "steps\n"),
    # E_{1,1}(-20) = e**-20 on the extended path, whose tail bound misses a
    # tolerance of 1e-30; kml reaches it through kml_batch's escalation.
    "eval-ml-extended-short-of-tol": (
        ["eval-ml", "--alpha", "1", "--beta", "1", "--x", "-20", "--tol",
         "1e-30"], 3,
        EVAL + "2.0611536224385579e-09,114,4.8516519540979024e-29,false\n",
        "error: extended evaluation did not converge to the tolerance\n"),
    "eval-kml-extended-short-of-tol": (
        ["eval-kml", "--k", "1", "--alpha", "1", "--beta", "1", "--gamma",
         "1", "--tau", "1", "--z", "-20", "--tol", "1e-30"], 3,
        EVAL + "2.0611536224385579e-09,114,4.8516519540978878e-29,false\n",
        "error: extended evaluation did not converge to the tolerance\n"),
}

# The program under test besides cli.main, as a command line: "fracml" once
# installed, or "python -m fracml".
EXE = shlex.split(os.environ.get("FRACML_EXE", ""))


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_subprocess(argv, program=("-m", "fracml")):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *program, *argv],
                          capture_output=True, env=env, cwd=REPO)


@pytest.mark.parametrize("argv, code, out, err", CASES.values(),
                         ids=list(CASES))
def test_case(argv, code, out, err, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(argv, capsys) == (code, out, err)
    if EXE:
        proc = subprocess.run([*EXE, *argv], capture_output=True,
                              cwd=tmp_path)
        assert ((proc.returncode, proc.stdout, proc.stderr)
                == (code, out.encode(), err.encode()))


@pytest.mark.parametrize("theorem, variant", SOLVERS,
                         ids=[f"{t}-{v}" for t, v in SOLVERS])
def test_theorem_table(theorem, variant, capsys):
    # Every theorem and variant of kinetics.SOLVERS solves; a removal rate
    # --a != --d is refused exactly where THEOREMS requires equal rates.
    argv = ["solve", "--theorem", str(theorem), "--variant", variant,
            *DB_FLAGS, "--nu", "5", "--t-max", "0.4", "--steps", "2"]
    code, out, err = run(argv, capsys)
    assert (code, len(out.splitlines()), err) == (0, 4, "")
    code, out, err = run([*argv, "--a", "2"], capsys)
    if THEOREMS[theorem].equal_rates:
        assert (code, out, err) == (
            2, "", f"error: --a must equal --d for theorem {theorem}\n")
    else:
        assert (code, len(out.splitlines()), err) == (0, 4, "")


@pytest.mark.skipif(not EXE, reason="FRACML_EXE is not set")
def test_installed_package_is_under_test():
    # The in-process tests of an installed run import fracml from where it
    # was installed, not from the checkout.
    assert not Path(fracml.__file__).resolve().is_relative_to(REPO / "src")


class TestEvalMl:
    def test_exponential_row(self, capsys):
        code, out, _ = run(["eval-ml", "--alpha", "1", "--beta", "1",
                            "--x", "1"], capsys)
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "value,terms_used,tail_bound,converged"
        value, terms, tail, converged = row.split(",")
        assert abs(float(value) - math.e) < 1e-12
        assert int(terms) > 0
        assert float(tail) >= 0.0
        assert converged == "true"

    def test_cosh_row(self, capsys):
        code, out, _ = run(["eval-ml", "--alpha", "2", "--beta", "1",
                            "--x", "4"], capsys)
        assert code == 0
        value = float(out.strip().split("\n")[1].split(",")[0])
        assert abs(value - 3.7621956910836314) < 1e-11

    def test_alpha_zero_is_validation_error(self, capsys):
        code, _, err = run(["eval-ml", "--alpha", "0", "--beta", "1",
                            "--x", "1"], capsys)
        assert code == 2
        assert "--alpha" in err

    def test_missing_flag(self, capsys):
        code, _, err = run(["eval-ml", "--alpha", "1", "--beta", "1"], capsys)
        assert code == 2
        assert "--x" in err

    def test_row_round_trips_to_library_value(self, capsys):
        code, out, _ = run(["eval-ml", "--alpha", "1.5", "--beta", "2.5",
                            "--x", "-2.25"], capsys)
        assert code == 0
        printed = float(out.strip().split("\n")[1].split(",")[0])
        assert printed == ml2(TwoParamML(1.5, 2.5), -2.25).value

    def test_flag_in_place_of_a_value_is_an_error(self, capsys):
        code, _, err = run(["eval-ml", "--beta", "1", "--x", "--alpha", "1"],
                           capsys)
        assert code == 2
        assert "argument --x: expected one argument" in err

    @settings(max_examples=100)
    @given(value=st.floats(max_value=-0.0, allow_infinity=False,
                           allow_nan=False),
           text=st.sampled_from([repr, str]))
    def test_negative_floats_round_trip(self, value, text):
        args = cli._parse(["eval-ml", "--alpha", "1", "--beta", text(value),
                           "--x", text(value)])
        assert (args.beta, args.x) == (value, value)
        assert math.copysign(1.0, args.x) == -1.0
        args = cli._parse(["eval-kml", "--k", "1", "--alpha", "1", "--beta",
                           "1", "--gamma", "1", "--tau", "1", "--z",
                           text(value)])
        assert args.z == value and math.copysign(1.0, args.z) == -1.0

    def test_overflowing_negative_argument_takes_the_contour(self, capsys):
        code, out, _ = run(["eval-ml", "--alpha", "0.5", "--beta", "1",
                            "--x", "-30"], capsys)
        assert code == 0
        value, terms, _, converged = out.splitlines()[1].split(",")
        assert (terms, converged) == ("751", "true")
        assert abs(float(value) - 0.01879588886141675) <= 1e-12 * 0.0188

    def test_leading_pole_zeros_end_in_a_value(self, capsys):
        # E_{1,-50}(-30) = -(30**51) e**-30: the first 51 terms are gamma
        # pole zeros, which once stopped the extended-precision sum at 0.0
        # and ended in an OverflowError traceback.
        code, out, _ = run(["eval-ml", "--alpha", "1", "--beta", "-50",
                            "--x", "-30"], capsys)
        assert code in (0, 3)
        if code == 0:
            value = float(out.splitlines()[1].split(",")[0])
            expected = -(30.0 ** 51) * math.exp(-30.0)
            assert abs(value - expected) <= 1e-12 * abs(expected)


class TestEvalKml:
    def test_database_value(self, capsys):
        code, out, _ = run(["eval-kml", "--k", "2", "--alpha", "6",
                            "--beta", "7", "--gamma", "2", "--tau", "1",
                            "--z", "1"], capsys)
        assert code == 0
        value = float(out.strip().split("\n")[1].split(",")[0])
        assert abs(value - 0.053345909834003539) < 1e-13

    def test_divergent_series_exits_3(self, capsys):
        code, out, err = run(["eval-kml", "--k", "1", "--alpha", "0.5",
                              "--beta", "1", "--gamma", "1", "--tau", "2",
                              "--z", "2"], capsys)
        assert code == 3
        assert "converge" in err
        assert out.strip().split("\n")[1].endswith("false")

    @pytest.mark.parametrize("beta, expected", [("400", 0.0),
                                                ("1e-310", 1e-310)])
    def test_extreme_beta_at_zero(self, beta, expected, capsys):
        # Gamma(beta) overflows, but 1/Gamma(beta) is a double (0.0 at
        # beta = 400, where it underflows).
        code, out, _ = run(["eval-kml", "--k", "1", "--alpha", "1",
                            "--beta", beta, "--gamma", "1", "--tau", "1",
                            "--z", "0"], capsys)
        assert code == 0
        value, terms, tail, converged = out.splitlines()[1].split(",")
        assert float(value) == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert (terms, tail, converged) == ("1", "0", "true")

    def test_invalid_tau(self, capsys):
        code, _, err = run(["eval-kml", "--k", "1", "--alpha", "1",
                            "--beta", "1", "--gamma", "1", "--tau", "1.5",
                            "--z", "1"], capsys)
        assert code == 2
        assert "--tau" in err


class TestSolve:
    def test_database_set_initial_value(self, capsys, tmp_path):
        out_file = tmp_path / "sol.csv"
        code, _, _ = run(["solve", "--theorem", "1", "--variant", "stated",
                          *DB_FLAGS, "--nu", "1", "--t-max", "0.5",
                          "--steps", "50", "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "t,N"
        assert len(lines) == 52
        t0, n0 = lines[1].split(",")
        assert float(t0) == 0.0
        expected = 0.05 / k_gamma(7.0, 2.0)
        assert abs(float(n0) - 2.6596e-3) < 1e-7
        assert abs(float(n0) - expected) < 1e-12 * expected

    def test_zero_steps_rejected(self, capsys):
        code, _, err = run(["solve", "--theorem", "1", "--variant", "stated",
                            *DB_FLAGS, "--nu", "1", "--t-max", "0.5",
                            "--steps", "0"], capsys)
        assert code == 2
        assert "--steps" in err

    def test_rederived_is_alias_for_theorem1(self, capsys):
        argv = ["solve", "--theorem", "1", *DB_FLAGS, "--nu", "1",
                "--t-max", "0.5", "--steps", "10"]
        code1, out1, _ = run(argv + ["--variant", "stated"], capsys)
        code2, out2, _ = run(argv + ["--variant", "rederived"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_theorem3_equal_rates_matches_theorem2(self, capsys):
        tail = [*DB_FLAGS, "--nu", "5", "--t-max", "0.4", "--steps", "20",
                "--variant", "rederived"]
        code2, out2, _ = run(["solve", "--theorem", "2", *tail], capsys)
        code3, out3, _ = run(["solve", "--theorem", "3", "--a", "3", *tail],
                             capsys)
        assert code2 == code3 == 0
        assert out2 == out3

    def test_fast_removal_solves_stay_off_extended_precision(
            self, capsys, monkeypatch):
        # Six stiff solves, one per (theorem, variant) pair: removal rate
        # 40, nu = 1.6, three time points.  Their cancelling inner factors
        # called _ml2_extended 20 times before the contour had placements
        # for relative accuracy and extended-precision residues; now 0.
        calls = []
        original = mittag._ml2_extended
        monkeypatch.setattr(
            mittag, "_ml2_extended",
            lambda *args: calls.append(args) or original(*args))
        db_set = DB_FLAGS[:-2]  # without the forcing rate
        for theorem, variant in SOLVERS:
            rates = (["--d", "40"] if THEOREMS[theorem].equal_rates
                     else ["--d", "3", "--a", "40"])
            code, out, _ = run(["solve", "--theorem", str(theorem),
                                "--variant", variant, *db_set, *rates,
                                "--nu", "1.6", "--t-max", "1", "--steps", "2"],
                               capsys)
            assert code == 0 and len(out.splitlines()) == 4
        assert len(calls) <= 0

    def test_underflowed_inner_factors_exit_3(self, capsys):
        # The outer series diverges; once its inner factors underflow to
        # 0.0 it must not be certified as converged.
        code, out, err = run(["solve", *DIVERGENT_FLAGS, "--steps", "4"],
                             capsys)
        assert code == 3
        assert out == ""
        assert "converge" in err

    def test_batched_grid_computes_each_pole_once(self, capsys,
                                                  monkeypatch):
        # One pole per nonzero time point at most: the memo keeps every
        # point, although the grid visits them row by row.  Counted by the
        # one cos_sin each computation makes.
        calls = []
        original = mittag.mpf_cos_sin
        monkeypatch.setattr(
            mittag, "mpf_cos_sin",
            lambda *args: calls.append(args) or original(*args))
        mittag._pole.cache_clear()
        argv, *pinned = CASES["solve-pole-grid"]
        assert run(argv, capsys) == tuple(pinned)
        assert 0 < len(calls) <= 40

    def test_csv_round_trip_is_exact(self, capsys):
        code, out, _ = run(["solve", "--theorem", "1", "--variant", "stated",
                            *DB_FLAGS, "--nu", "1", "--t-max", "0.5",
                            "--steps", "8"], capsys)
        assert code == 0
        prob = KineticProblem(n0=0.05, ml=MLParameters(k=2, alpha=6, beta=7,
                                                       gamma=2, q=1),
                              d=3.0, nu=1.0, forcing=Forcing.PLAIN)
        for line in out.splitlines()[1:]:
            t_str, n_str = line.split(",")
            assert float(n_str) == solve_theorem1(prob, float(t_str)).value


class TestVerify:
    def test_passing_report(self, capsys):
        code, out, _ = run(["verify", "--theorem", "1", "--variant", "stated",
                            *DB_FLAGS, "--nu", "1", "--t-max", "0.5",
                            "--grids", "16,32,64"], capsys)
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"grids", "max_residuals", "l2_residuals",
                               "order_estimate", "pass"}
        assert report["grids"] == [16, 32, 64]
        assert report["pass"] is True
        assert report["order_estimate"] > 1.8
        assert len(report["max_residuals"]) == 3
        assert len(report["l2_residuals"]) == 3

    def test_unreachable_threshold_exits_4(self, capsys):
        code, out, _ = run(["verify", "--theorem", "1", "--variant", "stated",
                            *DB_FLAGS, "--nu", "1", "--t-max", "0.5",
                            "--grids", "16,32", "--threshold", "1e-30"],
                           capsys)
        assert code == 4
        assert json.loads(out)["pass"] is False

    def test_stated_powered_variant_fails_gate(self, capsys):
        # The unweighted series does not satisfy its equation for nu != 1;
        # the report is emitted and the gate fails.
        code, out, _ = run(["verify", "--theorem", "2", "--variant", "stated",
                            *DB_FLAGS, "--nu", "5", "--t-max", "0.4",
                            "--grids", "16,32,64"], capsys)
        assert code == 4
        report = json.loads(out)
        assert report["pass"] is False
        assert report["order_estimate"] < 0.5

    def test_unconverged_forcing_exits_3(self, capsys, monkeypatch):
        # A converging solver double isolates the forcing, whose series
        # diverges: the report is incomplete and nothing is printed.
        def zero_solver(prob, t):
            return SeriesEvaluation(0.0 * t, 1, 0.0, True)

        monkeypatch.setitem(cli._SOLVERS, (1, "stated"), zero_solver)
        code, out, err = run(["verify", *DIVERGENT_FLAGS, "--grids", "16,32"],
                             capsys)
        assert code == 3
        assert out == ""
        assert "converge" in err

    def test_grid_validation(self, capsys):
        base = ["verify", "--theorem", "1", "--variant", "stated", *DB_FLAGS,
                "--nu", "1", "--t-max", "0.5"]
        for bad in ("8,16", "64", "64,100", "64;128"):
            code, _, err = run(base + ["--grids", bad], capsys)
            assert code == 2
            assert "--grids" in err


class TestTable:
    def test_schema(self, capsys):
        code, out, _ = run(["table"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "set,theorem,t,N_stated,N_rederived"
        assert len(lines) == 1 + 3 * 51
        sets = [line.split(",")[0] for line in lines[1:]]
        assert sets == ["1"] * 51 + ["2"] * 51 + ["3"] * 51

    def test_set_one_columns_equal(self, capsys):
        code, out, _ = run(["table", "--steps", "10"], capsys)
        assert code == 0
        for line in out.splitlines()[1:]:
            set_id, _, _, stated, rederived = line.split(",")
            if set_id == "1":
                assert stated == rederived

    def test_powered_sets_differ_between_variants(self, capsys):
        code, out, _ = run(["table", "--steps", "10"], capsys)
        assert code == 0
        differing = [line for line in out.splitlines()[1:]
                     if line.split(",")[0] == "2"
                     and line.split(",")[3] != line.split(",")[4]]
        assert differing


class TestParser:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()
        fresh = cli._build_parser.__wrapped__()
        assert fresh.format_help() == cli._build_parser().format_help()

    def test_calls_do_not_share_values(self, capsys):
        code, _, _ = run(["eval-ml", "--alpha", "1", "--beta", "1",
                          "--x", "1"], capsys)
        assert code == 0
        code, _, err = run(["eval-ml", "--alpha", "1", "--beta", "1"], capsys)
        assert code == 2
        assert "--x" in err

    def test_value_check_is_a_usage_error(self, capsys):
        code, out, err = run(["eval-ml", "--alpha", "0", "--beta", "1",
                              "--x", "1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage: fracml eval-ml")
        assert err.endswith("fracml eval-ml: error: argument --alpha: "
                            "must be > 0\n")

    def test_help_and_usage_errors_repeat(self, capsys):
        first = run(["--help"], capsys)
        assert first[0] == 0 and first[1].startswith("usage: fracml")
        assert run(["--help"], capsys) == first
        bad = run(["solve", "--steps", "x"], capsys)
        assert bad[0] == 2 and "invalid int value" in bad[2]
        assert run(["solve", "--steps", "x"], capsys) == bad


class TestConfigFile:
    def test_config_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1\nbeta = 1\nx = 1\n# comment\n")
        code, out, _ = run(["eval-ml", "--config", str(cfg)], capsys)
        assert code == 0
        assert abs(float(out.splitlines()[1].split(",")[0]) - math.e) < 1e-12

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=1\nbeta=1\nx=1\n")
        code, out, _ = run(["eval-ml", "--config", str(cfg), "--x", "0"],
                           capsys)
        assert code == 0
        value = float(out.splitlines()[1].split(",")[0])
        assert value == 1.0  # E_{1,1}(0)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=1\nbeta=1\nx=1\nbogus=3\n")
        code, _, err = run(["eval-ml", "--config", str(cfg)], capsys)
        assert code == 2
        assert "bogus" in err


    # One call per subcommand, as flags; the same flags go into a config
    # file as key=value lines (t_max with its underscore).
    SUBCOMMAND_FLAGS = [
        ("eval-ml", {"alpha": "0.7", "beta": "0.7", "x": "-40"}),
        ("eval-kml", {"k": "2", "alpha": "6", "beta": "7", "gamma": "2",
                      "tau": "1", "z": "1", "tol": "1e-13"}),
        ("solve", {"theorem": "2", "variant": "rederived", "N0": "0.05",
                   "gamma": "2", "tau": "1", "k": "2", "alpha": "6",
                   "beta": "7", "d": "3", "nu": "5", "t_max": "0.4",
                   "steps": "4"}),
        ("verify", {"theorem": "3", "variant": "stated", "N0": "0.05",
                    "gamma": "2", "tau": "1", "k": "2", "alpha": "6",
                    "beta": "7", "d": "3", "a": "3", "nu": "7",
                    "t_max": "0.4", "grids": "16,32", "threshold": "1e-30"}),
        ("table", {"t_max": "0.25", "steps": "3"}),
    ]

    @pytest.mark.parametrize("command, flags", SUBCOMMAND_FLAGS)
    def test_config_equals_flags(self, command, flags, capsys, tmp_path):
        argv = [command]
        for key, value in flags.items():
            argv += ["--" + key.replace("_", "-"), value]
        expected = run(argv, capsys)
        assert expected[0] in (0, 4) and expected[1]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}  # {key}\n"
                               for key, value in flags.items()))
        assert run([command, "--config", str(cfg)], capsys) == expected

    def test_config_value_is_checked(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=0\nbeta=1\nx=1\n")
        code, out, err = run(["eval-ml", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert "argument --alpha: must be > 0" in err
        cfg.write_text("t_max=-1\n")
        code, _, err = run(["table", "--config", str(cfg)], capsys)
        assert code == 2
        assert "argument --t-max: must be > 0" in err

    def test_malformed_line_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=1\nbeta 1\nx=1\n")
        code, out, err = run(["eval-ml", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --config {cfg}: line 2 is not key=value\n"

    def test_unreadable_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "missing.cfg"
        code, out, err = run(["eval-ml", "--config", str(missing)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --config: cannot read {missing}")

    def test_flag_overrides_config_before_or_after_it(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_max=0.5\nsteps=50\n")
        expected = run(["table", "--t-max", "0.25", "--steps", "3"], capsys)
        for argv in (["--config", str(cfg), "--t-max", "0.25", "--steps", "3"],
                     ["--t-max", "0.25", "--steps", "3", "--config", str(cfg)]):
            assert run(["table", *argv], capsys) == expected

class TestDeterminism:
    def test_solve_reruns_are_byte_identical(self):
        argv = ["solve", "--theorem", "2", "--variant", "rederived", *DB_FLAGS,
                "--nu", "5", "--t-max", "0.4", "--steps", "12"]
        first = run_subprocess(argv)
        second = run_subprocess(argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_verify_reruns_are_byte_identical(self):
        argv = ["verify", "--theorem", "1", "--variant", "stated", *DB_FLAGS,
                "--nu", "1", "--t-max", "0.5", "--grids", "16,32"]
        first = run_subprocess(argv)
        second = run_subprocess(argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


class TestGoldenBytes:
    """How the cancelling route computes the stiff solves and the contour
    points whose bytes CASES pins."""

    def test_routed_inner_factors_sum_no_series(self, capsys, monkeypatch):
        # The first solve: its inner factors at t = 0.5 and t = 1 made 20
        # double-series sums before they were routed (mittag.ml2_value).
        # Now 18 of them take the contour alone.  The two left (t = 1, b =
        # 9 and 10) end on the contour too, but cancel too little for the
        # bound that proves it beforehand (mittag._escalation_bound).
        calls = []
        original = mittag.sum_series
        monkeypatch.setattr(mittag, "sum_series",
                            lambda *args: calls.append(args) or original(*args))
        argv, *pinned = CASES["solve-stiff-theorem1"]
        assert run(argv, capsys) == tuple(pinned)
        assert len(calls) == 2

    @pytest.mark.parametrize("alpha, beta, x, row", CONTOUR_POINTS)
    def test_contour_points(self, alpha, beta, x, row):
        # Each row of CASES: a value of the contour, not of the series.
        p = TwoParamML(float(alpha), float(beta))
        assert ml2(p, float(x)).status == "contour"


class TestLargeGamma:
    """The CASES rows at a large gamma/k against mpmath sums."""

    @pytest.mark.parametrize("case, gamma, z, ulps", [
        ("eval-kml-large-gamma-1e10", 1e10, 1e-10, 4),
        ("eval-kml-large-gamma-1e4", 1e4, 1e-4, 4),
        # Each term's logarithm, n log(gamma) + n log(z) and more, rounds
        # at the size of n log(gamma) = 690 n, which the tail does not
        # count: the value is 61 ulps off.
        ("eval-kml-large-gamma-1e300", 1e300, 1e-300, 128)])
    def test_eval_kml_within_its_tail(self, capsys, case, gamma, z, ulps):
        _, out, _ = run(CASES[case][0], capsys)
        value, _, tail, _ = out.splitlines()[1].split(",")
        ref = float(oracles.mp_kml(1.0, 1.0, 1.0, gamma, 1.0, z, terms=40))
        assert abs(float(value) - ref) <= float(tail) + ulps * math.ulp(ref)

    def test_solve_within_its_tail(self, capsys):
        _, out, _ = run(CASES["solve-large-gamma"][0], capsys)
        ml = MLParameters(k=1.0, alpha=1.0, beta=1.0, gamma=1e10, q=1.0)
        ev = solve_theorem1(KineticProblem(1.0, ml, 1e-3, 1.0), 1e-10)
        assert ev.value == float(out.splitlines()[-1].split(",")[1])

        def coeff(n):  # (gamma)_n / n!
            return mpmath.mp.gamma(1e10 + n) / mpmath.mp.gamma(1e10) / (
                mpmath.mp.factorial(n))

        ref = float(oracles.mp_stated_solution(1, coeff, 1e-3, 1e-3, 1.0,
                                                1.0, 1e-10, terms=30,
                                                inner_terms=30))
        assert abs(ev.value - ref) <= ev.tail_bound + 4 * math.ulp(ref)


class TestArtifacts:
    """The checked-in records are exactly what the CLI computes now."""

    ARTIFACTS = REPO / "artifacts"

    def test_table_reproduces_database(self, capsys):
        code, out, _ = run(["table", "--t-max", "0.5", "--steps", "50"],
                           capsys)
        assert code == 0
        with open(self.ARTIFACTS / "database.csv", newline="") as fh:
            assert out == fh.read()

    @pytest.mark.parametrize("name", [
        f"residuals_set{s}_{v}.json" for s in (1, 2, 3) for v in VARIANTS])
    def test_verify_reproduces_record(self, name, capsys):
        with open(self.ARTIFACTS / name) as fh:
            record = json.load(fh)
        argv = ["verify"]
        for flag in ("theorem", "variant", "N0", "gamma", "tau", "k", "alpha",
                     "beta", "d", "a", "nu", "t_max"):
            argv += ["--" + flag.replace("_", "-"), repr(record[flag])
                     if isinstance(record[flag], float) else str(record[flag])]
        argv += ["--grids", ",".join(str(g) for g in record["grids"])]
        code, out, _ = run(argv, capsys)
        report = json.loads(out)
        for key in ("grids", "max_residuals", "l2_residuals", "order_estimate"):
            assert report[key] == record[key], key
        assert report["pass"] == record["satisfies_equation_gate"]
        assert code == (0 if record["satisfies_equation_gate"] else 4)

    def test_make_database_reproduces_artifacts(self, tmp_path):
        proc = run_subprocess(["--out-dir", str(tmp_path)],
                              [str(REPO / "scripts" / "make_database.py")])
        assert proc.returncode == 0, proc.stderr
        names = sorted(path.name for path in self.ARTIFACTS.iterdir())
        assert len(names) == 7
        assert sorted(path.name for path in tmp_path.iterdir()) == names
        for name in names:
            assert ((tmp_path / name).read_bytes()
                    == (self.ARTIFACTS / name).read_bytes()), name
