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
check_rejects_oneline("unknown app 'nosuchapp'"
                      sweep --apps ammp,nosuchapp)
check_rejects_oneline("unexpected argument 'positional'"
                      sweep positional)

# ---- strict value parsing
check_rejects_oneline("non-negative integer" sweep --insts abc)
# strtoull alone skips whitespace and negates: ' -1' would run 2^64-1
# instructions.
check_exit2_oneline("wants a non-negative integer, got ' -1'"
                    run --app ammp --insts " -1")
check_exit2_oneline("wants a non-negative integer, got '-5'"
                    sweep --apps ammp --jobs -5)
check_rejects_oneline("must be > 0" run --app ammp --insts 0)
check_rejects_oneline("needs a value" sweep --apps)
check_rejects_oneline("unknown organization 'bogus'"
                      sweep --orgs bogus)
check_rejects_oneline("unknown strategy 'bogus'"
                      sweep --strategies bogus)
check_rejects_oneline("at least one" sweep --apps ",")
check_rejects_oneline("wants icache|dcache|both" sweep --side left)

# ---- multi-core flags
check_rejects_oneline("wants 1..64" sweep --apps ammp --cores 0)
check_rejects_oneline("wants 1..64" run --app ammp --cores 65)
check_rejects_oneline("--quantum must be > 0"
                      run --app ammp --cores 2 --quantum 0)
check_rejects_oneline("unknown app 'nosuch'"
                      run --mix gcc+nosuch)
check_rejects_oneline("empty component" run --mix gcc+)
check_rejects_oneline("--mix conflicts with --app"
                      run --app ammp --mix gcc+swim)
check_rejects_oneline("--mix conflicts with --apps"
                      sweep --apps ammp --mix gcc+swim)
check_rejects_oneline("need --cores >= 2"
                      run --mix gcc+swim --cores 1 --insts 1000)
check_rejects_oneline("need --cores >= 3"
                      run --mix gcc+swim+ammp --cores 2 --insts 1000)
check_rejects_oneline("--quantum needs --cores > 1"
                      run --app gcc --quantum 1000 --insts 1000)
check_rejects_oneline("no effect under a sampled engine"
                      sweep --mix gcc+swim --engine
                      sampled:interval=20000
                      --quantum 1000 --insts 40000)
check_rejects_oneline("no effect under a sampled engine"
                      run --mix gcc+swim --engine
                      sampled:interval=20000
                      --quantum 1000 --insts 40000)
# A multi-program mix must never silently run only its first
# component: sweeping it without enough cores is rejected up front.
check_rejects_oneline("set \\[cores\\] count or a cores axis"
                      sweep --apps gcc+m88ksim --insts 1000)
check_rejects_oneline("set \\[cores\\] count or a cores axis"
                      sweep --mix gcc+swim --cores 1 --insts 1000)

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

# ---- scenario subcommand + sweep scenario/shard/resume flags
check_rejects_oneline("scenario needs a mode" scenario)
check_rejects_oneline("unknown scenario mode 'frob'" scenario frob)
check_rejects_oneline("needs at least one FILE" scenario check)
check_rejects_oneline("cannot open scenario file"
                      scenario check no-such-file.scn)
check_rejects_oneline("shard wants i/N"
                      sweep --apps ammp --shard 2/2)
check_rejects_oneline("conflicts with --scenario"
                      sweep --scenario x.scn --orgs ways)
check_rejects_oneline("--resume supports only --format csv"
                      sweep --apps ammp --resume out.csv
                      --format json)
check_rejects_oneline("drop --out"
                      sweep --apps ammp --resume a.csv --out b.csv)

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
check_accepts(sweep --apps ammp --insts 20000 --engine analytic)

# ---- per-subcommand --help is generated from the option allowlists
check_prints("--scenario" sweep --help)
check_prints("--shard" sweep --help)
check_prints("--il1-org" run --help)
check_prints("--engine" run --help)
check_prints("--engine" sweep --help)
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
                      sweep --apps ammp --shards 2)
check_rejects_oneline("needs --claim DIR"
                      sweep --apps ammp --lease-timeout 60)
check_rejects_oneline("--out conflicts with --claim"
                      sweep --claim nowhere --out x.csv)
check_rejects_oneline("--resume conflicts with --claim"
                      sweep --claim nowhere --resume x.csv)
check_rejects_oneline("grid flags conflict with --scenario"
                      sweep --claim nowhere --scenario x.scn
                      --apps ammp)
check_rejects_oneline("no manifest in 'nowhere'"
                      sweep --claim nowhere)

# A tune on a scenario without mode = adaptive names the fix; the
# claim knobs demand --claim; resume and claim are exclusive.
set(EXH_SCN "${CMAKE_CURRENT_BINARY_DIR}/tune_exhaustive_cli.scn")
file(WRITE ${EXH_SCN}
     "[scenario]\nname = exh\n[axes]\norg = ways,sets\n")
check_rejects_oneline("add 'mode = adaptive'"
                      tune --scenario ${EXH_SCN})
set(ADA_SCN "${CMAKE_CURRENT_BINARY_DIR}/tune_adaptive_cli.scn")
file(WRITE ${ADA_SCN}
     "[scenario]\nname = ada\n[axes]\norg = ways,sets\n"
     "[search]\nmode = adaptive\n")
check_rejects_oneline("--shards/--lease-timeout need --claim DIR"
                      tune --scenario ${ADA_SCN} --shards 2)
check_rejects_oneline("--resume and --claim are mutually exclusive"
                      tune --scenario ${ADA_SCN} --resume a.log
                      --claim d)
file(REMOVE ${EXH_SCN} ${ADA_SCN})
check_prints("--claim" sweep --help)
check_prints("--scenario" tune --help)
check_prints("CLAIM_DIR" merge --help)

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
                    inspect --events ${EMPTY_ART})
set(EMPTY_CSV "${CMAKE_CURRENT_BINARY_DIR}/empty_shard.csv")
file(WRITE ${EMPTY_CSV} "")
check_exit2_oneline("empty_shard.csv:1: missing header"
                    merge ${EMPTY_CSV})
file(REMOVE ${EMPTY_ART} ${EMPTY_CSV})

# ---- fault injection: --failpoint / RC_FAILPOINT specs are strict
check_exit2_oneline("unknown site 'bogus'"
                    sweep --apps ammp --failpoint bogus=crash)
check_exit2_oneline("wants SITE=ACTION"
                    sweep --apps ammp --failpoint csv.chunk.flush)
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
check_exit2_oneline("--policy wants lru\\|random\\|fifo\\|slru\\|wtlfu"
                    sweep --apps ammp --policy clock --insts 1000)
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
check_prints("--policy" sweep --help)

# ---- trace: app specs are preflighted: every rejection is one line,
# exit 2, before any simulation starts
check_exit2_oneline("cannot open trace file"
                    run --app trace:no-such-trace.csv --insts 1000)
check_exit2_oneline("cannot open trace file"
                    sweep --apps trace:no-such-trace.csv --insts 1000)
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
