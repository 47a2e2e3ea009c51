# Runs EXE with ARGS (a ;-list) and compares its stdout byte for byte with
# the file GOLDEN. On a mismatch the actual stdout is written to ACTUAL and
# the test fails naming both files, so `diff GOLDEN ACTUAL` shows the change.
#
#   cmake -DEXE=<binary> -DARGS=<a;b;c> -DGOLDEN=<file> -DACTUAL=<file> \
#         -P compare_stdout.cmake
execute_process(COMMAND ${EXE} ${ARGS}
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE stderr_text
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}:\n${stderr_text}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR "stdout differs from the golden file:\n"
                      "  diff ${GOLDEN} ${ACTUAL}")
endif()
