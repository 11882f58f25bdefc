# Strict-parse contract tests for the rcache-sim CLI, run as a ctest
# script against the real binary:
#
#   cmake -DRCACHE_SIM=<path-to-rcache-sim> -P cli_strict_parse.cmake
#
# Every rejection must exit nonzero; the unknown-subcommand /
# unknown-option / unknown-app rejections must additionally print
# exactly one diagnostic line so scripts and CI logs stay readable.

if(NOT RCACHE_SIM)
  message(FATAL_ERROR "pass -DRCACHE_SIM=<path to rcache-sim>")
endif()

# Rejection with a substring match on stderr.
function(check_rejects expect)
  execute_process(COMMAND ${RCACHE_SIM} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(SEND_ERROR
            "expected nonzero exit from: rcache-sim ${ARGN}")
  endif()
  if(NOT err MATCHES "${expect}")
    message(SEND_ERROR
            "missing diagnostic '${expect}' from: rcache-sim ${ARGN}"
            " — stderr was: ${err}")
  endif()
endfunction()

# Rejection whose diagnostic must be a single line.
function(check_rejects_oneline expect)
  check_rejects("${expect}" ${ARGN})
  execute_process(COMMAND ${RCACHE_SIM} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(REGEX REPLACE "\n+$" "" stripped "${err}")
  if(stripped MATCHES "\n")
    message(SEND_ERROR
            "diagnostic is not one line for: rcache-sim ${ARGN}"
            " — stderr was: ${err}")
  endif()
endfunction()

function(check_accepts)
  execute_process(COMMAND ${RCACHE_SIM} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR
            "expected exit 0 from: rcache-sim ${ARGN}"
            " — stderr was: ${err}")
  endif()
endfunction()

# Exit 0 AND stdout contains a substring (the generated --help text).
function(check_prints expect)
  execute_process(COMMAND ${RCACHE_SIM} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR
            "expected exit 0 from: rcache-sim ${ARGN}"
            " — stderr was: ${err}")
  endif()
  if(NOT out MATCHES "${expect}")
    message(SEND_ERROR
            "missing '${expect}' on stdout from: rcache-sim ${ARGN}"
            " — stdout was: ${out}")
  endif()
endfunction()

# Rejection that must exit with status 2 exactly (the documented
# usage/IO code) and print one diagnostic line.
function(check_exit2_oneline expect)
  check_rejects_oneline("${expect}" ${ARGN})
  execute_process(COMMAND ${RCACHE_SIM} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(SEND_ERROR
            "expected exit 2 from: rcache-sim ${ARGN} — got ${rc}")
  endif()
endfunction()

# Scenario files the sweep checks run against. A sweep's experiment
# comes only from a scenario, so every sweep diagnostic below is
# reached through one.
set(SCN_DIR "${CMAKE_CURRENT_BINARY_DIR}/cli_strict_parse_scn")
file(MAKE_DIRECTORY ${SCN_DIR})
function(write_scn name)
  string(CONCAT body ${ARGN})
  file(WRITE ${SCN_DIR}/${name}.scn "${body}")
endfunction()
write_scn(ammp "[scenario]\nname = cli\ninsts = 1000\n[workloads]\napps = ammp\n")
set(AMMP_SCN ${SCN_DIR}/ammp.scn)

# ---- unknown subcommands / options / apps: one-line diagnostics
check_rejects_oneline("unknown subcommand 'frobnicate'" frobnicate)
# replay was folded into `run --app trace:PATH`.
check_exit2_oneline("unknown subcommand 'replay'"
                    replay --trace t.trace)
check_rejects_oneline("unknown option '--bogus' for 'sweep'"
                      sweep --bogus 1)
check_rejects_oneline("unknown option '--progress' for 'run'"
                      run --app ammp --progress)
check_rejects_oneline("unknown app 'nosuchapp'" run --app nosuchapp)
write_scn(nosuchapp "[workloads]\napps = ammp,nosuchapp\n")
check_rejects_oneline("unknown app 'nosuchapp'"
                      sweep --scenario ${SCN_DIR}/nosuchapp.scn)
check_rejects_oneline("unexpected argument 'positional'"
                      sweep positional)

# ---- strict value parsing
check_rejects_oneline("non-negative integer"
                      sweep --scenario ${AMMP_SCN} --timeline-interval abc)
# strtoull alone skips whitespace and negates: ' -1' would run 2^64-1
# instructions.
check_exit2_oneline("wants a non-negative integer, got ' -1'"
                    run --app ammp --insts " -1")
check_exit2_oneline("wants a non-negative integer, got '-5'"
                    sweep --scenario ${AMMP_SCN} --jobs -5)
check_rejects_oneline("must be > 0" run --app ammp --insts 0)
check_rejects_oneline("needs a value" sweep --scenario)

# Options stored in 32 bits reject larger values instead of wrapping
# (2^32 jobs would become 0 = all cores; 2^32 reps zero repetitions).
set(ADA_SCN "${CMAKE_CURRENT_BINARY_DIR}/tune_adaptive_cli.scn")
file(WRITE ${ADA_SCN}
     "[scenario]\nname = ada\n[axes]\norg = ways,sets\n"
     "[search]\nmode = adaptive\n")
set(TOO_BIG 4294967296)
check_exit2_oneline("'--jobs' wants at most 4294967295, got '4294967296'"
                    sweep --scenario ${AMMP_SCN} --jobs ${TOO_BIG})
check_exit2_oneline("'--jobs' wants at most 4294967295"
                    sweep --claim nowhere --jobs ${TOO_BIG})
check_exit2_oneline("'--shards' wants at most 4294967295"
                    sweep --claim nowhere --shards ${TOO_BIG})
check_exit2_oneline("'--lease-timeout' wants at most 4294967295"
                    sweep --claim nowhere --lease-timeout ${TOO_BIG})
check_exit2_oneline("'--jobs' wants at most 4294967295"
                    tune --scenario ${ADA_SCN} --jobs ${TOO_BIG})
check_exit2_oneline("'--shards' wants at most 4294967295"
                    tune --scenario ${ADA_SCN} --shards ${TOO_BIG})
check_exit2_oneline("'--lease-timeout' wants at most 4294967295"
                    tune --scenario ${ADA_SCN} --lease-timeout ${TOO_BIG})
check_exit2_oneline("'--lease-timeout' wants at most 4294967295"
                    doctor somewhere --lease-timeout ${TOO_BIG})
check_exit2_oneline("'--reps' wants at most 4294967295"
                    bench --reps ${TOO_BIG})
check_exit2_oneline("'--il1-level' wants at most 4294967295"
                    run --app ammp --il1-level ${TOO_BIG})
check_exit2_oneline("'--dl1-level' wants at most 4294967295"
                    run --app ammp --dl1-level ${TOO_BIG})

# ---- multi-core flags
write_scn(zero_cores "[cores]\ncount = 0\n")
check_rejects_oneline("wants 1..64"
                      sweep --scenario ${SCN_DIR}/zero_cores.scn)
check_rejects_oneline("wants 1..64" run --app ammp --cores 65)
check_rejects_oneline("--quantum must be > 0"
                      run --app ammp --cores 2 --quantum 0)
check_rejects_oneline("unknown app 'nosuch'"
                      run --mix gcc+nosuch)
check_rejects_oneline("empty component" run --mix gcc+)
check_rejects_oneline("--mix conflicts with --app"
                      run --app ammp --mix gcc+swim)
check_rejects_oneline("need --cores >= 2"
                      run --mix gcc+swim --cores 1 --insts 1000)
check_rejects_oneline("need --cores >= 3"
                      run --mix gcc+swim+ammp --cores 2 --insts 1000)
check_rejects_oneline("--quantum needs --cores > 1"
                      run --app gcc --quantum 1000 --insts 1000)
write_scn(sampled_quantum
          "[cores]\ncount = 2\nquantum = 1000\n[workloads]\n"
          "apps = gcc+swim\n[engine]\nmode = sampled\n"
          "interval = 20000\n")
check_exit2_oneline("no effect under a sampled engine"
                    sweep --scenario ${SCN_DIR}/sampled_quantum.scn)
check_rejects_oneline("no effect under a sampled engine"
                      run --mix gcc+swim --engine
                      sampled:interval=20000
                      --quantum 1000 --insts 40000)
# A multi-program mix must never silently run only its first
# component: sweeping it without enough cores is rejected up front.
write_scn(mix_no_cores "[workloads]\napps = gcc+m88ksim\n")
check_rejects_oneline("set \\[cores\\] count or a cores axis"
                      sweep --scenario ${SCN_DIR}/mix_no_cores.scn)
write_scn(mix_one_core "[cores]\ncount = 1\n[workloads]\napps = gcc+swim\n")
check_rejects_oneline("set \\[cores\\] count or a cores axis"
                      sweep --scenario ${SCN_DIR}/mix_one_core.scn)

# ---- engine selection
check_rejects_oneline("unknown engine 'bogus'"
                      run --app ammp --engine bogus)
check_rejects_oneline("takes no options"
                      run --app ammp --engine analytic:detail=5)
check_rejects_oneline("unknown engine option 'frob'"
                      run --app ammp --engine sampled:frob=1)
check_rejects_oneline("duplicate engine option 'interval'"
                      run --app ammp
                      --engine sampled:interval=10,interval=20)
check_rejects_oneline("need interval=N"
                      run --app ammp --engine sampled:detail=100)
check_rejects_oneline("'interval' must be > 0"
                      run --app ammp --engine sampled:interval=0)
check_rejects_oneline("must fit in the sample period"
                      run --app ammp
                      --engine sampled:interval=1000,detail=900,warmup=200)
check_rejects_oneline("detail must be > 0"
                      run --app ammp
                      --engine sampled:interval=1000,detail=0)
# Overflow-safe shape check: a warmup near 2^64 must be rejected, not
# wrapped into a tiny sum that passes and hangs the run.
check_rejects_oneline("must fit in the sample period"
                      run --app ammp
                      --engine sampled:interval=1000,warmup=18446744073709551000)
# Signs and out-of-range counts are not engine option values.
check_rejects_oneline("bad value for engine option 'interval': '-1000'"
                      run --app ammp --engine sampled:interval=-1000)
check_rejects_oneline("bad value for engine option 'interval'"
                      run --app ammp
                      --engine sampled:interval=99999999999999999999999)
check_rejects_oneline("bad value for engine option 'warmup'"
                      run --app ammp
                      --engine "sampled:interval=1000,warmup= 5")
# The retired --sample* flags are ordinary unknown options.
check_rejects_oneline("unknown option '--sample' for 'run'"
                      run --app ammp --sample 1000)
# The analytic engine's validity envelope is enforced up front.
check_rejects_oneline("single core only"
                      run --mix gcc+swim --engine analytic
                      --insts 1000)
check_rejects_oneline("prices static geometries only"
                      run --app ammp --engine analytic
                      --dl1-org ways --dl1-strategy dynamic
                      --insts 1000)
# An analytic run has no timeline to sample; --events stays allowed
# (a static run's events file is empty, which inspect accepts).
check_exit2_oneline("--timeline needs the full or sampled engine"
                    run --app gcc --engine analytic
                    --timeline x.jsonl --insts 1000)

# A run's design point is checked as a scenario's is: each L1 must
# stay a cache under --assoc, and a static level must be one its
# organization offers, whatever the engine or core count.
foreach(engine full analytic)
  check_exit2_oneline("--dl1-level 9: --dl1-org sets offers levels 0..4"
                      run --app gcc --dl1-org sets --dl1-strategy static
                      --dl1-level 9 --insts 20000 --engine ${engine})
endforeach()
check_exit2_oneline("--dl1-level 9: --dl1-org sets offers levels 0..4"
                    run --mix gcc+swim --dl1-org sets
                    --dl1-strategy static --dl1-level 9 --insts 20000)
check_exit2_oneline("--il1-level 2: --il1-org ways offers levels 0..1"
                    run --app gcc --il1-org ways --il1-strategy static
                    --il1-level 2 --insts 20000)
check_exit2_oneline("--assoc 3: il1: assoc 3 does not divide size"
                    run --app gcc --assoc 3 --insts 20000)
check_exit2_oneline("--assoc 48: il1: assoc 48 does not divide size"
                    run --app gcc --assoc 48 --insts 20000)
check_exit2_oneline("--assoc 64: il1: subarraySize does not divide way size"
                    run --app gcc --assoc 64 --insts 20000)
# A scenario's design point gets the same geometry reason, which ends
# the line: no "; " separator trails it.
write_scn(assoc3 "[scenario]\nname = a\ninsts = 1000\n[workloads]\n"
          "apps = ammp\n[axes]\nassoc = 3\n")
check_exit2_oneline("design point 'assoc=3': il1: assoc 3 does not divide size\n$"
                    scenario check ${SCN_DIR}/assoc3.scn)

# ---- scenario subcommand + sweep scenario/shard/resume flags
check_rejects_oneline("scenario needs a mode" scenario)
check_rejects_oneline("unknown scenario mode 'frob'" scenario frob)
check_rejects_oneline("needs at least one FILE" scenario check)
check_rejects_oneline("cannot open scenario file"
                      scenario check no-such-file.scn)
check_rejects_oneline("shard wants i/N"
                      sweep --scenario ${AMMP_SCN} --shard 2/2)
check_rejects_oneline("--resume supports only --format csv"
                      sweep --scenario ${AMMP_SCN} --resume out.csv
                      --format json)
check_rejects_oneline("drop --out"
                      sweep --scenario ${AMMP_SCN} --resume a.csv
                      --out b.csv)

# A malformed scenario file gets exactly one file:line diagnostic.
set(BAD_SCN "${CMAKE_CURRENT_BINARY_DIR}/bad_cli_test.scn")
file(WRITE ${BAD_SCN} "[scenario]\nname = bad\n[axes]\nnope = 1\n")
check_rejects_oneline("bad_cli_test.scn:4: axis 'nope'"
                      scenario check ${BAD_SCN})
file(REMOVE ${BAD_SCN})

# Multi-core-only settings on a single-core scenario would be silently
# ignored: each is refused with one line and exit 2.
set(ONE_CORE_SCN "${CMAKE_CURRENT_BINARY_DIR}/one_core_cli_test.scn")
foreach(case
        "[cores]\nmodels = inorder\n|\\[cores\\] models has no effect"
        "[axes]\nquantum = 5000,10000\n|'quantum' axis has no effect"
        "[cores]\nquantum = 10000\n|\\[cores\\] quantum has no effect")
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 body)
  list(GET parts 1 expect)
  file(WRITE ${ONE_CORE_SCN} "[workloads]\napps = gcc\n${body}")
  check_exit2_oneline("${expect}" sweep --scenario ${ONE_CORE_SCN})
endforeach()
file(REMOVE ${ONE_CORE_SCN})

# ---- bench subcommand
check_rejects_oneline("unknown option '--bogus' for 'bench'"
                      bench --bogus 1)
check_rejects_oneline("must be > 0" bench --insts 0)
check_rejects_oneline("must be > 0" bench --reps 0)
check_rejects_oneline("non-negative integer" bench --reps abc)
check_rejects_oneline("no benchmark matches filter"
                      bench --filter nosuchbench)
check_prints("detailed_ooo" bench --list)
# A missing --out-dir fails up front, before any benchmark runs.
check_exit2_oneline("--out-dir 'no-such-bench-dir' is not a directory"
                    bench --out-dir no-such-bench-dir)
check_prints("--out-dir" bench --help)

# ---- happy paths still exit 0
check_accepts(list-apps)
check_accepts(--help)
check_accepts(run --app ammp --insts 20000 --engine analytic)
check_accepts(run --app ammp --insts 20000
              --engine sampled:interval=10000,detail=2000,warmup=1000)
write_scn(analytic
          "[scenario]\ninsts = 20000\n[workloads]\napps = ammp\n"
          "[engine]\nmode = analytic\n")
check_accepts(sweep --scenario ${SCN_DIR}/analytic.scn)

# ---- per-subcommand --help is generated from the option allowlists
check_prints("--scenario" sweep --help)
check_prints("--shard" sweep --help)
check_prints("--il1-org" run --help)
check_prints("--engine" run --help)
check_prints("design-space sweep" sweep --help)
check_prints("check FILE" scenario --help)
check_accepts(list-apps --help)

# A good scenario file round-trips through check and print.
set(GOOD_SCN "${CMAKE_CURRENT_BINARY_DIR}/good_cli_test.scn")
file(WRITE ${GOOD_SCN}
     "[scenario]\nname = good\n[axes]\norg = ways,sets\n")
check_prints("good_cli_test.scn: ok" scenario check ${GOOD_SCN})
check_prints("org = ways,sets" scenario print ${GOOD_SCN})
file(REMOVE ${GOOD_SCN})

# ---- tune / merge / claim orchestration flags
check_rejects_oneline("unknown option '--bogus' for 'tune'"
                      tune --bogus 1)
check_rejects_oneline("tune needs --scenario" tune)
check_rejects_oneline("unknown option '--frob' for 'merge'"
                      merge --frob)
check_rejects_oneline("merge needs shard CSVs or a manifest" merge)
check_rejects_oneline("option '--out' needs a value" merge --out)
check_rejects_oneline("needs --claim DIR"
                      sweep --scenario ${AMMP_SCN} --shards 2)
check_rejects_oneline("needs --claim DIR"
                      sweep --scenario ${AMMP_SCN} --lease-timeout 60)
check_rejects_oneline("--out conflicts with --claim"
                      sweep --claim nowhere --out x.csv)
check_rejects_oneline("--resume conflicts with --claim"
                      sweep --claim nowhere --resume x.csv)
check_rejects_oneline("no manifest in 'nowhere'"
                      sweep --claim nowhere)

# A tune on a scenario without mode = adaptive names the fix; the
# claim knobs demand --claim; resume and claim are exclusive.
set(EXH_SCN "${CMAKE_CURRENT_BINARY_DIR}/tune_exhaustive_cli.scn")
file(WRITE ${EXH_SCN}
     "[scenario]\nname = exh\n[axes]\norg = ways,sets\n")
check_rejects_oneline("add 'mode = adaptive'"
                      tune --scenario ${EXH_SCN})
check_rejects_oneline("--shards/--lease-timeout need --claim DIR"
                      tune --scenario ${ADA_SCN} --shards 2)
check_rejects_oneline("--resume and --claim are mutually exclusive"
                      tune --scenario ${ADA_SCN} --resume a.log
                      --claim d)
file(REMOVE ${EXH_SCN} ${ADA_SCN})
check_prints("--claim" sweep --help)
check_prints("--scenario" tune --help)
check_prints("CLAIM_DIR" merge --help)

# ---- a resume adopts only rows its own scenario would write: a golden
# log or CSV resumed under a copy that enumerates other cells (the apps
# swapped, another policy) is refused with one line, and the file stays
# as it was, with nothing moved aside.
set(GOLDEN_DIR "${CMAKE_CURRENT_LIST_DIR}/../golden")
set(RESUME_DIR "${CMAKE_CURRENT_BINARY_DIR}/cli_strict_parse_resume")
file(REMOVE_RECURSE ${RESUME_DIR})
file(MAKE_DIRECTORY ${RESUME_DIR})
file(READ ${GOLDEN_DIR}/tune_cores_micro.scn scn)
string(REPLACE "apps = gcc,swim" "apps = swim,gcc" scn "${scn}")
file(WRITE ${RESUME_DIR}/swapped.scn "${scn}")
file(READ ${GOLDEN_DIR}/tune_cores_micro.log.golden.jsonl tune_log)
file(WRITE ${RESUME_DIR}/tune.log "${tune_log}")
check_exit2_oneline("round 0, cell 0: app 'gcc' where this scenario has 'swim'"
                    tune --scenario ${RESUME_DIR}/swapped.scn
                    --resume ${RESUME_DIR}/tune.log)
file(READ ${GOLDEN_DIR}/fig4_micro.scn scn)
file(WRITE ${RESUME_DIR}/random.scn "${scn}\n[system]\npolicy = random\n")
file(READ ${GOLDEN_DIR}/fig4_micro.golden.csv csv)
set(csv_prefix "")
foreach(line RANGE 4) # the header and four rows
  string(FIND "${csv}" "\n" nl)
  math(EXPR nl "${nl} + 1")
  string(SUBSTRING "${csv}" 0 ${nl} row)
  string(APPEND csv_prefix "${row}")
  string(SUBSTRING "${csv}" ${nl} -1 csv)
endforeach()
file(WRITE ${RESUME_DIR}/sweep.csv "${csv_prefix}")
check_exit2_oneline("row 1: policy 'lru' where this scenario has 'random'"
                    sweep --scenario ${RESUME_DIR}/random.scn
                    --resume ${RESUME_DIR}/sweep.csv)
file(READ ${RESUME_DIR}/tune.log after_log)
file(READ ${RESUME_DIR}/sweep.csv after_csv)
file(GLOB asides ${RESUME_DIR}/*.corrupt.*)
if(NOT after_log STREQUAL tune_log OR NOT after_csv STREQUAL csv_prefix
   OR asides)
  message(SEND_ERROR "a refused resume changed or moved its file: "
                     "${RESUME_DIR}")
endif()
file(REMOVE_RECURSE ${RESUME_DIR})

# ---- missing/empty artifact inputs: one "path:line:" diagnostic,
# exit 2 (never a stack trace or a silent empty report)
check_exit2_oneline("no-such-artifact.jsonl:1: cannot open"
                    inspect --events no-such-artifact.jsonl)
check_exit2_oneline("no-such-timeline.jsonl:1: cannot open"
                    inspect --timeline no-such-timeline.jsonl)
check_exit2_oneline("no-such-shard.csv:1: cannot open"
                    merge no-such-shard.csv)
set(EMPTY_ART "${CMAKE_CURRENT_BINARY_DIR}/empty_artifact.jsonl")
file(WRITE ${EMPTY_ART} "")
check_exit2_oneline("empty_artifact.jsonl:1: empty file"
                    inspect --timeline ${EMPTY_ART})
# An empty events file is what a run without a dynamic controller
# writes: zero events, exit 0.
check_prints("resize events: 0" inspect --events ${EMPTY_ART})
set(EMPTY_CSV "${CMAKE_CURRENT_BINARY_DIR}/empty_shard.csv")
file(WRITE ${EMPTY_CSV} "")
check_exit2_oneline("empty_shard.csv:1: missing header"
                    merge ${EMPTY_CSV})
file(REMOVE ${EMPTY_ART} ${EMPTY_CSV})

# ---- fault injection: --failpoint / RC_FAILPOINT specs are strict
check_exit2_oneline("unknown site 'bogus'"
                    sweep --scenario ${AMMP_SCN} --failpoint bogus=crash)
check_exit2_oneline("wants SITE=ACTION"
                    sweep --scenario ${AMMP_SCN}
                    --failpoint csv.chunk.flush)
check_exit2_oneline("unknown action 'frob'"
                    run --app ammp --failpoint csv.chunk.flush=frob)
check_exit2_oneline("positive hit index"
                    tune --failpoint log.append=crash@0)
check_rejects_oneline("unknown option '--failpoint' for 'merge'"
                      merge --failpoint log.append=crash)
check_prints("claim.lease.after_create" list-failpoints)
check_prints("csv.chunk.flush" list-failpoints)
check_prints("--failpoint" sweep --help)
check_prints("--failpoint" tune --help)
check_prints("--failpoint" run --help)

# A malformed RC_FAILPOINT environment spec is rejected up front,
# before any subcommand runs.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "RC_FAILPOINT=bogus=crash"
          ${RCACHE_SIM} list-apps
  RESULT_VARIABLE rc
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(SEND_ERROR
          "expected exit 2 for a bad RC_FAILPOINT env spec, got ${rc}")
endif()
if(NOT err MATCHES "RC_FAILPOINT.*unknown site 'bogus'")
  message(SEND_ERROR
          "missing RC_FAILPOINT diagnostic — stderr was: ${err}")
endif()

# ---- replacement policy flag: strict value, exit 2, one line
check_exit2_oneline("--policy wants lru\\|random\\|fifo\\|slru\\|wtlfu"
                    run --app ammp --policy plru --insts 1000)
write_scn(clock "[workloads]\napps = ammp\n[system]\npolicy = clock\n")
check_exit2_oneline("policy wants lru\\|random\\|fifo\\|slru\\|wtlfu"
                    sweep --scenario ${SCN_DIR}/clock.scn)
set(POL_TRACE "${CMAKE_CURRENT_BINARY_DIR}/policy_cli.trace")
file(WRITE ${POL_TRACE} "L 400000 0 1 0 0 0\n")
check_exit2_oneline("--policy wants lru\\|random\\|fifo\\|slru\\|wtlfu"
                    run --app trace:${POL_TRACE} --policy mru
                    --insts 1000)
file(REMOVE ${POL_TRACE})
# The analytic engine's true-LRU envelope covers the policy knob too.
check_exit2_oneline("models true-LRU"
                    run --app ammp --engine analytic --policy fifo
                    --insts 1000)
check_prints("--policy" run --help)

# ---- trace: app specs are preflighted: every rejection is one line,
# exit 2, before any simulation starts
check_exit2_oneline("cannot open trace file"
                    run --app trace:no-such-trace.csv --insts 1000)
write_scn(no_trace "[workloads]\napps = trace:no-such-trace.csv\n")
check_exit2_oneline("cannot open trace file"
                    sweep --scenario ${SCN_DIR}/no_trace.scn)
check_exit2_oneline("unknown trace format 'frob'"
                    run --app trace:whatever.csv:frob --insts 1000)
check_exit2_oneline("cannot infer trace format"
                    run --app trace:mystery.dat --insts 1000)
check_exit2_oneline("empty path" run --app trace: --insts 1000)

# A malformed leading record surfaces as file:line at preflight.
set(BAD_TRACE "${CMAKE_CURRENT_BINARY_DIR}/bad_rows_cli.csv")
file(WRITE ${BAD_TRACE} "1,notanumber,1,4096,0,cf,0,1,3,0,5,7,100\n")
check_exit2_oneline("bad_rows_cli.csv:1:"
                    run --app trace:${BAD_TRACE} --insts 1000)
file(REMOVE ${BAD_TRACE})

# ---- native traces: a malformed record gets one file:line diagnostic
set(BAD_NATIVE "${CMAKE_CURRENT_BINARY_DIR}/bad_native_cli.trace")
file(WRITE ${BAD_NATIVE} "L 400000 0 1 0 0 0\ngarbage here\n")
check_exit2_oneline("bad_native_cli.trace:2:"
                    run --app trace:${BAD_NATIVE} --insts 1000)
file(REMOVE ${BAD_NATIVE})
check_exit2_oneline("cannot open trace file: no-such.trace"
                    run --app trace:no-such.trace --insts 1000)

# ---- convert: strict flags, spec errors exit 2, happy path streams
check_rejects_oneline("unknown option '--bogus' for 'convert'"
                      convert --bogus 1)
check_exit2_oneline("convert needs --in" convert)
check_exit2_oneline("cannot open trace file"
                    convert --in no-such-trace.csv)
check_exit2_oneline("unknown trace format 'frob'"
                    convert --in trace:whatever.csv:frob)
check_exit2_oneline("cannot infer trace format"
                    convert --in mystery.dat)
check_exit2_oneline("non-negative integer"
                    convert --in x.csv --limit abc)
check_prints("--limit" convert --help)

# Round trip: a rocksdb row converts to one native load line on
# stdout (block 7 -> effAddr 7*64 = 0x1c0), and --limit truncates.
set(CONV_IN "${CMAKE_CURRENT_BINARY_DIR}/convert_cli_in.csv")
file(WRITE ${CONV_IN}
     "1,7,1,4096,0,cf,0,1,3,0,5,7,100\n"
     "1,9,1,4096,0,cf,0,1,3,0,5,7,100\n")
check_prints("L 40000c 1c0 1 0 0 0" convert --in ${CONV_IN})
execute_process(COMMAND ${RCACHE_SIM} convert --in ${CONV_IN}
                        --limit 1
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
string(REGEX MATCHALL "\nL " loads "\n${out}")
list(LENGTH loads nloads)
if(NOT rc EQUAL 0 OR NOT nloads EQUAL 1)
  message(SEND_ERROR
          "convert --limit 1 should emit exactly one load, got "
          "${nloads} (exit ${rc}): ${out}")
endif()
file(REMOVE ${CONV_IN})

# ---- doctor: strict argument parsing, audit exit codes
check_exit2_oneline("doctor wants exactly one CLAIM_DIR" doctor)
check_exit2_oneline("doctor wants exactly one CLAIM_DIR"
                    doctor dir1 dir2)
check_exit2_oneline("unknown option '--frob' for 'doctor'"
                    doctor --frob somewhere)
check_exit2_oneline("option '--lease-timeout' needs a value"
                    doctor somewhere --lease-timeout)
check_exit2_oneline("wants a non-negative integer"
                    doctor somewhere --lease-timeout abc)
check_exit2_oneline("wants a non-negative integer, got ' -5'"
                    doctor somewhere --lease-timeout " -5")
check_prints("CLAIM_DIR" doctor --help)
# Auditing a directory with no manifest is an inconsistency (exit 2),
# reported in the audit itself, not a usage error.
execute_process(
  COMMAND ${RCACHE_SIM} doctor ${CMAKE_CURRENT_BINARY_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
if(NOT rc EQUAL 2)
  message(SEND_ERROR
          "expected exit 2 from doctor on a manifest-less dir, "
          "got ${rc}")
endif()
if(NOT out MATCHES "PROBLEM" OR NOT out MATCHES "INCONSISTENT")
  message(SEND_ERROR
          "doctor audit report incomplete — stdout was: ${out}")
endif()

# ---- one front end: the experiment comes from a scenario file
# The retired sweep grid flags are ordinary unknown options.
check_exit2_oneline("unknown option '--apps' for 'sweep'"
                    sweep --apps ammp)
check_exit2_oneline("unknown option '--engine' for 'sweep'"
                    sweep --engine analytic)
check_exit2_oneline("unknown option '--policy' for 'sweep'"
                    sweep --policy lru)
# A bare sweep names the missing scenario instead of starting a
# default grid.
check_exit2_oneline("sweep needs --scenario FILE" sweep)
# Output locations are command-line options; a scenario file with
# the retired [telemetry] section is refused.
write_scn(telemetry "[scenario]\nname = t\n[telemetry]\ntimeline = t.jsonl\n")
check_exit2_oneline("telemetry.scn:3: unknown section '\\[telemetry\\]'"
                    sweep --scenario ${SCN_DIR}/telemetry.scn)
check_exit2_oneline("unknown section '\\[telemetry\\]'"
                    scenario check ${SCN_DIR}/telemetry.scn)

# ---- list-failpoints goes through the same strict parser
check_exit2_oneline("unknown option '--bogus' for 'list-failpoints'"
                    list-failpoints --bogus 1 extra)
check_exit2_oneline("unexpected argument 'extra' for 'list-failpoints'"
                    list-failpoints extra)
check_prints("usage: rcache-sim list-failpoints" list-failpoints --help)

# ---- help is worded per subcommand
check_prints("--insts N[^\n]*default 2000000" bench --help)
check_prints("--insts N[^\n]*default 400000" run --help)
check_prints("--resume FILE[^\n]*decision log" tune --help)
check_prints("--resume FILE[^\n]*CSV of an interrupted sweep" sweep --help)

# ---- help and parser agree. Every subcommand the top-level usage
# lists, and every --key its --help prints, is fed back as
# `<cmd> --key [v] --zz-sentinel`: the parser must accept the key and
# reject the line at the unknown sentinel, before anything runs. A
# key in the help but missing from the parser (or taking a value in
# one and not the other) names itself, not the sentinel.
execute_process(COMMAND ${RCACHE_SIM} --help
  RESULT_VARIABLE rc OUTPUT_VARIABLE top)
string(REGEX MATCHALL "\n  [a-z][a-z-]*  " cmd_lines "${top}")
list(LENGTH cmd_lines ncmds)
if(ncmds LESS 12)
  message(SEND_ERROR "top-level usage lists ${ncmds} subcommands: ${top}")
endif()
set(nkeys 0)
foreach(cmd_line ${cmd_lines})
  string(STRIP "${cmd_line}" cmd)
  execute_process(COMMAND ${RCACHE_SIM} ${cmd} --help
    RESULT_VARIABLE rc OUTPUT_VARIABLE help)
  if(NOT rc EQUAL 0 OR NOT help MATCHES "usage: rcache-sim ${cmd}")
    message(SEND_ERROR "'${cmd} --help' failed (exit ${rc}): ${help}")
  endif()
  string(REGEX MATCHALL "\n  --[a-z0-9-]+( [^ \n]+)?  " opt_lines
         "${help}")
  foreach(opt_line ${opt_lines})
    string(REGEX MATCH "--[a-z0-9-]+" key "${opt_line}")
    if(opt_line MATCHES "--[a-z0-9-]+ [^ ]")
      set(cmd_args ${cmd} ${key} v --zz-sentinel)
    else()
      set(cmd_args ${cmd} ${key} --zz-sentinel)
    endif()
    execute_process(COMMAND ${RCACHE_SIM} ${cmd_args}
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 2 OR NOT err MATCHES "'--zz-sentinel'"
       OR err MATCHES "'${key}'")
      message(SEND_ERROR
              "help/parser disagree on: rcache-sim ${cmd_args}"
              " (exit ${rc}) — stderr was: ${err}")
    endif()
    math(EXPR nkeys "${nkeys} + 1")
  endforeach()
endforeach()
if(nkeys LESS 60)
  message(SEND_ERROR "agreement loop checked only ${nkeys} keys")
endif()
file(REMOVE_RECURSE ${SCN_DIR})
