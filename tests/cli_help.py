"""`geomfreq --help` and each subcommand's `--help` at COLUMNS=80: the
text a reader of the console sees, pinned so that a change to how the
parser is built cannot move it."""

HELP_80 = {
    '': """\
usage: geomfreq [-h] {generate,analyze,validate,park,hilbert} ...

Geometric frequency analysis of polyphase waveforms

positional arguments:
  {generate,analyze,validate,park,hilbert}
    generate            sample a scenario into a waveform CSV
    analyze             compute invariants along a waveform
    validate            run invariant property suites
    park                dq0 transform and derivative-frame checks
    hilbert             analytic embedding equivalence report

options:
  -h, --help            show this help message and exit
""",
    'generate': """\
usage: geomfreq generate [-h] [--t0 T0] [--t1 T1] [--dt DT] [--vdc VDC]
                         [--out OUT] [--config CONFIG]
                         [scenario]

positional arguments:
  scenario         scenario id (DC, SINGLE_PHASE, E0..E8)

options:
  -h, --help       show this help message and exit
  --t0 T0
  --t1 T1
  --dt DT
  --vdc VDC        DC level for the DC scenario
  --out OUT
  --config CONFIG
""",
    'analyze': """\
usage: geomfreq analyze [-h] [--scenario SCENARIO] [--csv CSV]
                        [--mode {analytic,numeric}] [--t0 T0] [--t1 T1]
                        [--dt DT] [--filter-tau FILTER_TAU]
                        [--remove-zero-seq] [--out OUT] [--config CONFIG]

options:
  -h, --help            show this help message and exit
  --scenario SCENARIO
  --csv CSV
  --mode {analytic,numeric}
  --t0 T0
  --t1 T1
  --dt DT
  --filter-tau FILTER_TAU
  --remove-zero-seq
  --out OUT
  --config CONFIG
""",
    'validate': """\
usage: geomfreq validate [-h] [scope]

positional arguments:
  scope

options:
  -h, --help  show this help message and exit
""",
    'park': """\
usage: geomfreq park [-h] [--scenario SCENARIO] [--wdq WDQ] [--theta0 THETA0]
                     [--t0 T0] [--t1 T1] [--dt DT] [--out OUT]
                     [--config CONFIG]

options:
  -h, --help           show this help message and exit
  --scenario SCENARIO
  --wdq WDQ
  --theta0 THETA0
  --t0 T0
  --t1 T1
  --dt DT
  --out OUT
  --config CONFIG
""",
    'hilbert': """\
usage: geomfreq hilbert [-h] [--freq FREQ] [--t1 T1] [--dt DT] [--csv CSV]
                        [--channel CHANNEL] [--out OUT]

options:
  -h, --help         show this help message and exit
  --freq FREQ
  --t1 T1
  --dt DT
  --csv CSV
  --channel CHANNEL
  --out OUT
""",
}
