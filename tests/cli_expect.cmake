# Runs a built command line and checks what it did. Arguments are
# '|'-separated so fault specs and paths pass through add_test intact.
#
#   cmake -DCMD="bin|--flag|value" -DEXIT=2 -DEXPECT="text|text" -P cli_expect.cmake
#     exit status must be EXIT; stdout+stderr must contain every EXPECT.
#   cmake -DCMD="..." -DSAME_AS="..." -P cli_expect.cmake
#     both must exit 0 with the same stdout, ignoring wall-clock lines.
string(REPLACE "|" ";" cmd "${CMD}")
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)

if(DEFINED SAME_AS)
  string(REPLACE "|" ";" cmd2 "${SAME_AS}")
  execute_process(COMMAND ${cmd2} RESULT_VARIABLE rc2 OUTPUT_VARIABLE out2 ERROR_VARIABLE err2)
  if(NOT rc EQUAL 0 OR NOT rc2 EQUAL 0)
    message(FATAL_ERROR "exit ${rc} / ${rc2}\n${err}\n${err2}")
  endif()
  string(REGEX REPLACE "[^\n]*wall_ms[^\n]*\n" "" out "${out}")
  string(REGEX REPLACE "[^\n]*wall_ms[^\n]*\n" "" out2 "${out2}")
  if(NOT out STREQUAL out2)
    message(FATAL_ERROR "outputs differ:\n--- ${CMD}\n${out}\n--- ${SAME_AS}\n${out2}")
  endif()
  return()
endif()

if(NOT rc EQUAL EXIT)
  message(FATAL_ERROR "expected exit ${EXIT}, got ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()
string(REPLACE "|" ";" expect "${EXPECT}")
foreach(text IN LISTS expect)
  string(FIND "${out}${err}" "${text}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "output lacks '${text}'\nstdout:\n${out}\nstderr:\n${err}")
  endif()
endforeach()
