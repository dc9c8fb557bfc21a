# Runs one tool and fails unless it exits with exactly EXIT and its
# output (stdout and stderr) contains MATCH. Invoked by the tool-cli
# ctest label (see tools/CMakeLists.txt):
#   cmake -DBIN=<path> -DARGS=<args...> -DEXIT=<code> -DMATCH=<text>
#         -P cmake/expect_exit.cmake
if(NOT DEFINED BIN OR NOT DEFINED EXIT)
  message(FATAL_ERROR "expect_exit.cmake needs -DBIN=<tool> and -DEXIT=<code>")
endif()
separate_arguments(ARGS)
list(JOIN ARGS " " shown)

execute_process(
  COMMAND ${BIN} ${ARGS}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc STREQUAL EXIT)
  message(FATAL_ERROR
    "${BIN} ${shown} exited with ${rc}, expected ${EXIT}:\n${out}${err}")
endif()
string(FIND "${out}${err}" "${MATCH}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
    "${BIN} ${shown}: output lacks \"${MATCH}\":\n${out}${err}")
endif()
