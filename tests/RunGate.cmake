# Runs one Tier-1 golden or baseline gate (registered in tests/CMakeLists.txt
# under the "golden" label):
#
#   cmake -DRUN=<exe> -DRUN_ARGS="<args>" [-DGOLDEN=<file>]
#         [-DEXPECT=<regex>] [-DEXPECT_ALSO=<regex>]
#         [-DBASELINE=<file> -DCANDIDATE=<file> -DDIFF_ARGS="<args>"]
#         -DOUT=<file> -P RunGate.cmake
#
# RUN must exit 0. Its stdout is saved to OUT; with GOLDEN it must match that
# file byte for byte (a unified diff is printed otherwise), and EXPECT /
# EXPECT_ALSO must each match it. With BASELINE, `RUN diff` then gates the
# result file CANDIDATE (written by RUN_ARGS) against BASELINE.

separate_arguments(RUN_ARGS UNIX_COMMAND "${RUN_ARGS}")
execute_process(COMMAND ${RUN} ${RUN_ARGS}
  OUTPUT_VARIABLE Out RESULT_VARIABLE Rc)
file(WRITE "${OUT}" "${Out}")
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "${RUN} exited with ${Rc}; output in ${OUT}")
endif()

if(GOLDEN)
  file(READ "${GOLDEN}" Expected)
  if(NOT Out STREQUAL Expected)
    execute_process(COMMAND diff -u "${GOLDEN}" "${OUT}")
    message(FATAL_ERROR "output differs from ${GOLDEN}")
  endif()
endif()

foreach(Pattern IN ITEMS "${EXPECT}" "${EXPECT_ALSO}")
  if(Pattern AND NOT Out MATCHES "${Pattern}")
    message(FATAL_ERROR "output lacks '${Pattern}'; see ${OUT}")
  endif()
endforeach()

if(BASELINE)
  separate_arguments(DIFF_ARGS UNIX_COMMAND "${DIFF_ARGS}")
  execute_process(COMMAND ${RUN} diff --baseline "${BASELINE}"
                          --candidate "${CANDIDATE}" ${DIFF_ARGS}
    RESULT_VARIABLE DiffRc)
  if(NOT DiffRc EQUAL 0)
    message(FATAL_ERROR "${CANDIDATE} regresses against ${BASELINE}")
  endif()
endif()
