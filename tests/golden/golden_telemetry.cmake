# Telemetry contract check, run as a ctest against the real binary:
#
#   cmake -DRCACHE_SIM=<rcache-sim> -DGOLDEN_DIR=<tests/golden>
#         [-DSCENARIO=<name>] [-DJOBS=<n>] -DWORK_DIR=<work dir>
#         -P golden_telemetry.cmake
#
# SCENARIO names tests/golden/<name>.scn and its
# <name>.{timeline,events}.golden.jsonl goldens (default:
# telemetry_micro); JOBS is the sweep's --jobs (default 2). Four
# properties of that scenario are pinned:
#
#  1. non-perturbation: the sweep CSV is byte-identical with
#     telemetry enabled and disabled (the recorders observe the run,
#     never steer it);
#  2. golden timelines: the per-core interval-timeline JSONL matches
#     the checked-in golden byte-for-byte;
#  3. golden events: the resize-decision event-trace JSONL matches
#     its golden byte-for-byte;
#  4. trace shape: the Chrome trace-event JSON has the object form,
#     complete spans, and the chunk-flush/baseline-memo markers
#     (timestamps are wall clock, so no byte comparison).
#
# The goldens were written at --jobs 2, and every file compared here
# is --jobs-invariant: rows stream out commit unit by commit unit,
# and the units do not depend on --jobs (see SweepOptions).
# Regenerate the goldens with the command in the scenario's header.

foreach(var RCACHE_SIM GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_telemetry.cmake needs -D${var}=...")
  endif()
endforeach()
if(NOT DEFINED SCENARIO)
  set(SCENARIO telemetry_micro)
endif()
if(NOT DEFINED JOBS)
  set(JOBS 2)
endif()

set(scenario ${GOLDEN_DIR}/${SCENARIO}.scn)
file(MAKE_DIRECTORY ${WORK_DIR})

# Cell 0's trace point names the scenario's first app. It is the
# "point.K" arg of the lane-group span that ran one of cell 0's jobs.
file(STRINGS ${scenario} apps_line REGEX "^apps *=")
string(REGEX REPLACE "^apps *= *([^,]*).*" "\\1" first_app "${apps_line}")

# ---- 1. reference run, telemetry off
execute_process(
  COMMAND ${RCACHE_SIM} sweep --scenario ${scenario} --jobs ${JOBS}
          --out ${WORK_DIR}/off.csv
  RESULT_VARIABLE rc
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "telemetry-off sweep failed (exit ${rc}): ${stderr}")
endif()

# ---- 2. same sweep, every telemetry layer on
execute_process(
  COMMAND ${RCACHE_SIM} sweep --scenario ${scenario} --jobs ${JOBS}
          --out ${WORK_DIR}/on.csv
          --timeline ${WORK_DIR}/timeline.jsonl
          --events ${WORK_DIR}/events.jsonl
          --trace-events ${WORK_DIR}/trace.json
          --timeline-interval 5000
  RESULT_VARIABLE rc
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "telemetry-on sweep failed (exit ${rc}): ${stderr}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/off.csv ${WORK_DIR}/on.csv
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
          "telemetry perturbed the sweep: ${WORK_DIR}/on.csv differs "
          "from ${WORK_DIR}/off.csv — recorders must observe the "
          "run, never steer it.")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/timeline.jsonl
          ${GOLDEN_DIR}/${SCENARIO}.timeline.golden.jsonl
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
          "timeline golden mismatch: ${WORK_DIR}/timeline.jsonl — "
          "the interval-timeline contract drifted. If intentional "
          "and reviewed, regenerate (see ${SCENARIO}.scn).")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/events.jsonl
          ${GOLDEN_DIR}/${SCENARIO}.events.golden.jsonl
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
          "resize-event golden mismatch: ${WORK_DIR}/events.jsonl — "
          "the decision-trace contract drifted. If intentional and "
          "reviewed, regenerate (see ${SCENARIO}.scn).")
endif()

# ---- 4. Chrome trace shape (wall-clock values, so structural only)
file(READ ${WORK_DIR}/trace.json trace)
foreach(needle
        [[{"traceEvents":[]]
        [["ph":"X"]]
        [["name":"chunk-flush"]]
        [["name":"baseline-memo"]]
        "\":\"cell=0;app=${first_app};")
  string(FIND "${trace}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "trace-events shape check: '${needle}' not found in "
            "${WORK_DIR}/trace.json")
  endif()
endforeach()

# ---- 5. the inspect subcommand digests both artifacts. A static-only
# scenario records no resize events (step 3 pinned its events file to
# an empty golden), which inspect summarizes as zero events.
set(needles "timeline:" "resize events:" "decisions by reason:")
execute_process(
  COMMAND ${RCACHE_SIM} inspect --timeline ${WORK_DIR}/timeline.jsonl
          --events ${WORK_DIR}/events.jsonl
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "inspect failed (exit ${rc}): ${stderr}")
endif()
foreach(needle ${needles})
  string(FIND "${out}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "inspect output check: '${needle}' missing from:\n${out}")
  endif()
endforeach()
