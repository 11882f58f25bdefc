# Golden check of one `run` report, run as a ctest against the real
# binary:
#
#   cmake -DRCACHE_SIM=<rcache-sim> -DRUN_ARGS="<run options>"
#         -DGOLDEN=<file.golden.txt> -DOUT=<scratch.txt>
#         -P golden_run.cmake
#
# Runs `rcache-sim run RUN_ARGS` and byte-compares its stdout with the
# checked-in golden. The multi-core report (writeMultiCoreReport) is
# the user-facing output these pin. To regenerate after a reviewed
# contract change, run the same command and write its stdout over
# the golden.

foreach(var RCACHE_SIM RUN_ARGS GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_run.cmake needs -D${var}=...")
  endif()
endforeach()

separate_arguments(run_args UNIX_COMMAND "${RUN_ARGS}")
execute_process(
  COMMAND ${RCACHE_SIM} run ${run_args}
  OUTPUT_FILE ${OUT}
  RESULT_VARIABLE rc
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run ${RUN_ARGS} failed (exit ${rc}): ${stderr}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR
          "golden mismatch: ${OUT} differs from ${GOLDEN} — the "
          "report of `run ${RUN_ARGS}` drifted.")
endif()
