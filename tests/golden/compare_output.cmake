# Runs PROGRAM and fails unless its standard output equals the file GOLDEN
# byte for byte. The environment (HYBRIDCNN_THREADS, ...) is inherited.
#
#   cmake -DPROGRAM=<executable> -DGOLDEN=<file> -P compare_output.cmake
execute_process(COMMAND "${PROGRAM}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "output of ${PROGRAM} differs from ${GOLDEN}:\n"
                      "${actual}")
endif()
