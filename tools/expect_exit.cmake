# Run TOOL with ARGS (a ;-list) and require exit status EXPECT and
# MATCH in its standard output. A process killed by a signal has no
# exit status (execute_process reports a text instead), so it fails.
#   cmake -DTOOL=... -DARGS=... -DEXPECT=2 -DMATCH=... -P expect_exit.cmake
execute_process(COMMAND ${TOOL} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT)
    message(FATAL_ERROR "expected exit ${EXPECT}, got '${rc}'\n${out}\n${err}")
endif()
string(FIND "${out}" "${MATCH}" pos)
if(pos EQUAL -1)
    message(FATAL_ERROR "output lacks '${MATCH}'\n${out}\n${err}")
endif()
