# Golden check of one adaptive tune, run as a ctest against the real
# binary:
#
#   cmake -DRCACHE_SIM=<rcache-sim> -DSCENARIO=<file.scn>
#         -DGOLDEN_LOG=<file.log.golden.jsonl>
#         -DGOLDEN_CSV=<file.golden.csv> -DWORK_DIR=<work dir>
#         -P golden_tune.cmake
#
# Runs `tune --jobs 2` and byte-compares its decision log and winner
# row with the checked-in goldens: the log carries every round's
# scores with their exact sweep rows, the promotion verdicts and the
# cost accounting. Then resumes a copy of the complete log and a copy
# cut after round 0's verdict; each must rewrite the same log and
# winner, and neither may move its input aside as corrupt. To
# regenerate after a reviewed contract change, see the header comment
# in the .scn files.

foreach(var RCACHE_SIM SCENARIO GOLDEN_LOG GOLDEN_CSV WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_tune.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Run `tune` with ARGN, writing TAG.log and TAG.csv, and compare both
# with the goldens.
function(check_tune tag)
  execute_process(
    COMMAND ${RCACHE_SIM} tune --scenario ${SCENARIO} --jobs 2
            --log ${WORK_DIR}/${tag}.log --out ${WORK_DIR}/${tag}.csv
            ${ARGN}
    RESULT_VARIABLE rc
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tune ${ARGN} failed (exit ${rc}): ${stderr}")
  endif()
  foreach(pair "log;${GOLDEN_LOG}" "csv;${GOLDEN_CSV}")
    list(GET pair 0 ext)
    list(GET pair 1 golden)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK_DIR}/${tag}.${ext}
              ${golden}
      RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
      message(FATAL_ERROR
              "golden mismatch: ${WORK_DIR}/${tag}.${ext} differs from "
              "${golden} — the tune ${ARGN} drifted.")
    endif()
  endforeach()
endfunction()

check_tune(fresh)

# A complete log: every round is read back, nothing is simulated.
configure_file(${WORK_DIR}/fresh.log ${WORK_DIR}/done.log COPYONLY)
check_tune(resumed --resume ${WORK_DIR}/done.log)

# A log cut after round 0's verdict: round 0 is read back, the later
# rounds run again. (Byte offsets, not file(STRINGS): the rows hold
# ';', which a CMake list would split on.)
file(READ ${WORK_DIR}/fresh.log log)
string(FIND "${log}" "{\"event\":\"promote\",\"round\":0," at)
if(at EQUAL -1)
  message(FATAL_ERROR "${WORK_DIR}/fresh.log has no round-0 verdict")
endif()
string(SUBSTRING "${log}" ${at} -1 tail)
string(FIND "${tail}" "\n" nl)
math(EXPR len "${at} + ${nl} + 1")
string(SUBSTRING "${log}" 0 ${len} cut)
file(WRITE ${WORK_DIR}/cut.log "${cut}")
check_tune(cut_resumed --resume ${WORK_DIR}/cut.log)

file(GLOB asides ${WORK_DIR}/*.corrupt.*)
if(asides)
  message(FATAL_ERROR "a resume moved its log aside: ${asides}")
endif()
