# Golden check of one `run` report, run as a ctest against the real
# binary:
#
#   cmake -DRCACHE_SIM=<rcache-sim> -DRUN_ARGS="<run options>"
#         -DGOLDEN=<file.golden.txt> -DOUT=<scratch.txt>
#         -DTIMELINE_INTERVAL=<N> -DTIMELINE_GOLDEN=<file.jsonl>
#         -P golden_run.cmake
#
# Runs `rcache-sim run RUN_ARGS` and byte-compares its stdout with the
# checked-in golden: the run report (writeRunReport, or
# writeMultiCoreReport on several cores) is the user-facing output
# these pin. The same run is then repeated with
# `--timeline OUT.timeline.jsonl --timeline-interval
# TIMELINE_INTERVAL`: its stdout must still match GOLDEN (the timeline
# observes, never steers) and its timeline must match TIMELINE_GOLDEN
# byte for byte. To regenerate after a reviewed contract change, run
# the same commands and write their outputs over the goldens.

foreach(var RCACHE_SIM RUN_ARGS GOLDEN OUT TIMELINE_INTERVAL
            TIMELINE_GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_run.cmake needs -D${var}=...")
  endif()
endforeach()

# Run `run RUN_ARGS ARGN` to OUT and compare its stdout with GOLDEN.
function(check_run)
  separate_arguments(run_args UNIX_COMMAND "${RUN_ARGS}")
  execute_process(
    COMMAND ${RCACHE_SIM} run ${run_args} ${ARGN}
    OUTPUT_FILE ${OUT}
    RESULT_VARIABLE rc
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "run ${RUN_ARGS} ${ARGN} failed (exit ${rc}): ${stderr}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
            "golden mismatch: ${OUT} differs from ${GOLDEN} — the "
            "report of `run ${RUN_ARGS} ${ARGN}` drifted.")
  endif()
endfunction()

check_run()

set(timeline ${OUT}.timeline.jsonl)
check_run(--timeline ${timeline} --timeline-interval ${TIMELINE_INTERVAL})
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${timeline} ${TIMELINE_GOLDEN}
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
          "golden mismatch: ${timeline} differs from ${TIMELINE_GOLDEN} — "
          "the timeline of `run ${RUN_ARGS}` drifted.")
endif()
