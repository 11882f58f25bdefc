# Crash-recovery invariant suite, run as a ctest against the real
# binary:
#
#   cmake -DRCACHE_SIM=<rcache-sim> -DFAULT_DIR=<tests/fault>
#         -DGOLDEN_DIR=<tests/golden> -DWORK_DIR=<scratch>
#         -P crash_recovery.cmake
#
# For EVERY site in `rcache-sim list-failpoints` the suite injects a
# deterministic fault (crash / torn / io_error via the RC_FAILPOINT
# environment variable), asserts the documented exit code and
# one-line diagnostic, then recovers — single-process --resume, or a
# second claim worker taking over the crashed one's lease — and
# byte-compares the final outputs against an undisturbed run. The
# suite enumerates the registry at the end and fails if any site has
# no flow, so adding a failpoint without a recovery proof is itself
# a test failure.

cmake_policy(SET CMP0057 NEW) # IN_LIST

foreach(var RCACHE_SIM FAULT_DIR GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "crash_recovery.cmake needs -D${var}=...")
  endif()
endforeach()

set(SWEEP_SCN ${FAULT_DIR}/chaos_sweep.scn)
set(TUNE_SCN ${FAULT_DIR}/chaos_tune.scn)
set(TELEM_SCN ${GOLDEN_DIR}/telemetry_micro.scn)
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(covered "")

# Run rcache-sim with an optional injected failpoint spec and assert
# the exit code. Usage:
#   sim(<expected-rc> <failpoint-spec-or-"none"> <stderr-regex-or-"">
#       <args...>)
# The matched stderr is exported as last_stderr for follow-up checks.
function(sim expect_rc failpoints expect_err)
  if(failpoints STREQUAL "none")
    set(launcher)
  else()
    set(launcher ${CMAKE_COMMAND} -E env "RC_FAILPOINT=${failpoints}")
  endif()
  execute_process(COMMAND ${launcher} ${RCACHE_SIM} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR
            "expected exit ${expect_rc}, got ${rc} from: rcache-sim "
            "${ARGN} (RC_FAILPOINT=${failpoints}) — stderr: ${err}")
  endif()
  if(NOT expect_err STREQUAL ""
     AND NOT "${out}${err}" MATCHES "${expect_err}")
    message(FATAL_ERROR
            "output missing '${expect_err}' from: rcache-sim ${ARGN} "
            "(RC_FAILPOINT=${failpoints}) — stdout: ${out} — "
            "stderr: ${err}")
  endif()
endfunction()

function(same a b why)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
            "${why}: ${a} differs from ${b} — recovery must "
            "reproduce the undisturbed bytes exactly.")
  endif()
endfunction()

macro(nap)
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 2)
endmacro()

# ---- undisturbed references
sim(0 none "" sweep --scenario ${SWEEP_SCN} --jobs 2
    --out ${WORK_DIR}/sweep_ref.csv)
sim(0 none "" tune --scenario ${TUNE_SCN}
    --out ${WORK_DIR}/tune_ref.csv --log ${WORK_DIR}/tune_ref.log)

# =====================================================================
# Flow A — csv.chunk.flush: crash/tear/starve the chunked CSV commit
# mid-sweep, then --resume into the byte-identical report. crash@1
# dies before any row lands, crash@2 between the two chunks, torn@2
# leaves half a chunk (resume drops the torn tail), io_error@1 takes
# the documented exit-3 full-disk path.
# =====================================================================
foreach(variant "crash@1;137" "crash@2;137" "torn@2;137"
                "io_error@1;3")
  list(GET variant 0 action)
  list(GET variant 1 rc)
  set(out ${WORK_DIR}/sweep_A.csv)
  file(REMOVE ${out})
  sim(${rc} "csv.chunk.flush=${action}"
      "failpoint 'csv.chunk.flush' fired"
      sweep --scenario ${SWEEP_SCN} --jobs 2 --out ${out})
  sim(0 none "" sweep --scenario ${SWEEP_SCN} --jobs 2
      --resume ${out})
  same(${out} ${WORK_DIR}/sweep_ref.csv
       "flow A (csv.chunk.flush=${action}) resume")
endforeach()
list(APPEND covered csv.chunk.flush)

# The io_error diagnostic is the documented one-liner.
sim(3 "csv.chunk.flush=io_error@1" "disk full or device error"
    sweep --scenario ${SWEEP_SCN} --jobs 2
    --out ${WORK_DIR}/sweep_A_diag.csv)

# =====================================================================
# Flow B — the claim protocol: worker 1 crashes at each lease-lifecycle
# site, worker 2 (after the 1 s lease timeout) takes over and drains
# the manifest; doctor must call the directory consistent and the
# merged report must match the unsharded reference.
# =====================================================================
foreach(site claim.manifest.scn.after claim.manifest.meta.write
             claim.lease.after_create claim.heartbeat
             claim.unit.publish claim.done.before)
  string(REPLACE "." "_" tag ${site})
  set(dir ${WORK_DIR}/claim_${tag})
  sim(137 "${site}=crash@1" "failpoint '${site}' fired: crash"
      sweep --scenario ${SWEEP_SCN} --jobs 2 --claim ${dir}
      --shards 2 --lease-timeout 1)
  nap()
  sim(0 none "" sweep --scenario ${SWEEP_SCN} --jobs 2
      --claim ${dir} --shards 2 --lease-timeout 1)
  sim(0 none "" doctor --lease-timeout 1 ${dir})
  sim(0 none "" merge --out ${WORK_DIR}/claim_${tag}_merged.csv
      ${dir})
  same(${WORK_DIR}/claim_${tag}_merged.csv
       ${WORK_DIR}/sweep_ref.csv
       "flow B (${site}=crash@1) takeover+merge")
  list(APPEND covered ${site})
endforeach()

# claim.manifest.meta.write, torn variant: the crash leaves a
# *partial* meta — doctor reports the damage (exit 2), the next
# worker quarantines it aside and re-creates, and the drained
# directory merges identically.
set(dir ${WORK_DIR}/claim_meta_torn)
sim(137 "claim.manifest.meta.write=torn@1"
    "failpoint 'claim.manifest.meta.write' fired: torn"
    sweep --scenario ${SWEEP_SCN} --jobs 2 --claim ${dir}
    --shards 2 --lease-timeout 1)
sim(2 none "INCONSISTENT" doctor --lease-timeout 1 ${dir})
sim(0 none "moved aside" sweep --scenario ${SWEEP_SCN} --jobs 2
    --claim ${dir} --shards 2 --lease-timeout 1)
sim(0 none "" doctor --lease-timeout 1 ${dir})
sim(0 none "" merge --out ${WORK_DIR}/claim_meta_torn_merged.csv
    ${dir})
same(${WORK_DIR}/claim_meta_torn_merged.csv ${WORK_DIR}/sweep_ref.csv
     "flow B (claim.manifest.meta.write=torn@1) quarantine+merge")

# claim.takeover.aside: crash *during* a takeover — after the stale
# lease is renamed aside, before the fresh claim. A third worker must
# still drain the directory (the aside already freed the unit).
set(dir ${WORK_DIR}/claim_takeover_aside)
sim(137 "claim.lease.after_create=crash@1" ""
    sweep --scenario ${SWEEP_SCN} --jobs 2 --claim ${dir}
    --shards 2 --lease-timeout 1)
nap()
sim(137 "claim.takeover.aside=crash@1"
    "failpoint 'claim.takeover.aside' fired: crash"
    sweep --scenario ${SWEEP_SCN} --jobs 2 --claim ${dir}
    --shards 2 --lease-timeout 1)
sim(0 none "" sweep --scenario ${SWEEP_SCN} --jobs 2 --claim ${dir}
    --shards 2 --lease-timeout 1)
sim(0 none "" doctor --lease-timeout 1 ${dir})
sim(0 none "" merge --out ${WORK_DIR}/claim_aside_merged.csv ${dir})
same(${WORK_DIR}/claim_aside_merged.csv ${WORK_DIR}/sweep_ref.csv
     "flow B (claim.takeover.aside=crash@1) third-worker merge")
list(APPEND covered claim.takeover.aside)

# claim.heartbeat, io_error variant: a failed mtime bump is degraded
# operation, not death — the worker warns and finishes; its output is
# untouched.
set(dir ${WORK_DIR}/claim_hb_degraded)
sim(0 "claim.heartbeat=io_error@1" "heartbeat failed"
    sweep --scenario ${SWEEP_SCN} --jobs 2 --claim ${dir}
    --shards 2 --lease-timeout 300)
sim(0 none "" merge --out ${WORK_DIR}/claim_hb_merged.csv ${dir})
same(${WORK_DIR}/claim_hb_merged.csv ${WORK_DIR}/sweep_ref.csv
     "flow B (claim.heartbeat=io_error) degraded-worker merge")

# =====================================================================
# Flow C — the tune decision log and winner CSV: crash mid-log (in
# round 0 and round 1), tear a record, starve an append, kill the
# winner write; every --resume reproduces the reference log and
# winner byte for byte.
# =====================================================================
foreach(variant "log.append=crash@3;137" "log.append=torn@5;137"
                "log.append=io_error@2;3"
                "tune.winner.write=crash@1;137"
                "tune.winner.write=io_error@1;3")
  list(GET variant 0 spec)
  list(GET variant 1 rc)
  string(REGEX REPLACE "=.*" "" site ${spec})
  set(log ${WORK_DIR}/tune_C.log)
  set(out ${WORK_DIR}/tune_C.csv)
  file(REMOVE ${log} ${out})
  sim(${rc} ${spec} "failpoint '${site}' fired"
      tune --scenario ${TUNE_SCN} --out ${out} --log ${log})
  sim(0 none "" tune --scenario ${TUNE_SCN} --resume ${log}
      --log ${log} --out ${out})
  same(${log} ${WORK_DIR}/tune_ref.log "flow C (${spec}) log")
  same(${out} ${WORK_DIR}/tune_ref.csv "flow C (${spec}) winner")
  list(APPEND covered ${site})
endforeach()

# =====================================================================
# Flow D — the claim protocol under a two-worker claim tune. A tune
# unit passes the same sites as a sweep unit (one claim worker drains
# both), plus atomic.publish, whose one hit is the manifest scenario
# text. Worker 1 crashes at each site, worker 2 (after the 1 s lease
# timeout) takes over and finishes the tune; doctor must call the
# directory consistent, and worker 2's log and winner must match the
# local reference.
# =====================================================================
foreach(site atomic.publish claim.lease.after_create claim.heartbeat
             claim.unit.publish claim.done.before)
  string(REPLACE "." "_" tag ${site})
  set(dir ${WORK_DIR}/claim_tune_${tag})
  set(w ${WORK_DIR}/tune_D_${tag})
  sim(137 "${site}=crash@1" "failpoint '${site}' fired: crash"
      tune --scenario ${TUNE_SCN} --claim ${dir} --shards 2
      --lease-timeout 1 --log ${w}_w1.log --out ${w}_w1.csv)
  nap()
  sim(0 none "" tune --scenario ${TUNE_SCN} --claim ${dir} --shards 2
      --lease-timeout 1 --log ${w}_w2.log --out ${w}_w2.csv)
  sim(0 none "" doctor --lease-timeout 1 ${dir})
  same(${w}_w2.log ${WORK_DIR}/tune_ref.log
       "flow D (${site}=crash@1) takeover log")
  same(${w}_w2.csv ${WORK_DIR}/tune_ref.csv
       "flow D (${site}=crash@1) takeover winner")
  list(APPEND covered ${site})
endforeach()

# =====================================================================
# Flow E — telemetry sidecars and the merge report. Telemetry is
# observability, so the recovery proof is non-perturbation: after a
# sidecar crash, a clean rerun's sweep CSV still matches the
# no-telemetry reference. io_error takes the exit-3 path. The merged
# report is a durability seam like any other: its final flush can
# fail (exit 3) or crash, and a rerun must commit identical bytes.
# =====================================================================
sim(0 none "" sweep --scenario ${TELEM_SCN} --jobs 2
    --out ${WORK_DIR}/telem_ref.csv)
foreach(site telemetry.timeline.append telemetry.events.append
             telemetry.trace.write)
  string(REPLACE "." "_" tag ${site})
  set(sidecars --timeline ${WORK_DIR}/E_${tag}.tl.jsonl
      --events ${WORK_DIR}/E_${tag}.ev.jsonl
      --trace-events ${WORK_DIR}/E_${tag}.tr.json)
  sim(137 "${site}=crash@1" "failpoint '${site}' fired: crash"
      sweep --scenario ${TELEM_SCN} --jobs 2
      --out ${WORK_DIR}/E_${tag}.csv ${sidecars})
  sim(3 "${site}=io_error@1" "disk full or device error"
      sweep --scenario ${TELEM_SCN} --jobs 2
      --out ${WORK_DIR}/E_${tag}.csv ${sidecars})
  sim(0 none "" sweep --scenario ${TELEM_SCN} --jobs 2
      --out ${WORK_DIR}/E_${tag}.csv ${sidecars})
  same(${WORK_DIR}/E_${tag}.csv ${WORK_DIR}/telem_ref.csv
       "flow E (${site}) telemetry non-perturbation")
  list(APPEND covered ${site})
endforeach()

set(dir ${WORK_DIR}/claim_hb_degraded) # drained sweep dir from B
sim(3 "merge.out.flush=io_error@1" "disk full or device error"
    merge --out ${WORK_DIR}/merged_io.csv ${dir})
sim(137 "merge.out.flush=crash@1"
    "failpoint 'merge.out.flush' fired: crash"
    merge --out ${WORK_DIR}/merged_crash.csv ${dir})
sim(0 none "" merge --out ${WORK_DIR}/merged_clean.csv ${dir})
same(${WORK_DIR}/merged_clean.csv ${WORK_DIR}/sweep_ref.csv
     "flow E (merge.out.flush) rerun merge")
list(APPEND covered merge.out.flush)

# =====================================================================
# Coverage cross-check: every registered failpoint site must have
# appeared in a flow above. A new site without a recovery proof fails
# here, by name.
# =====================================================================
execute_process(COMMAND ${RCACHE_SIM} list-failpoints
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE registry)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "list-failpoints failed (exit ${rc})")
endif()
string(REGEX MATCHALL "[^\n]+" lines "${registry}")
set(all_sites "")
foreach(line ${lines})
  string(REGEX MATCH "^[a-z0-9_.]+" site "${line}")
  if(site)
    list(APPEND all_sites ${site})
  endif()
endforeach()
list(LENGTH all_sites nsites)
if(nsites LESS 15)
  message(FATAL_ERROR
          "list-failpoints reported only ${nsites} site(s): "
          "${registry}")
endif()
foreach(site ${all_sites})
  if(NOT site IN_LIST covered)
    message(FATAL_ERROR
            "failpoint site '${site}' is registered but no "
            "crash-recovery flow in crash_recovery.cmake covers it — "
            "every durability seam needs a recovery proof.")
  endif()
endforeach()
message(STATUS
        "crash-recovery: all ${nsites} failpoint sites covered")
