# Run TOOL with ARGS (a ;-list) and require exit status EXPECT, MATCH
# (if given) in its standard output and MATCH_ERR (if given) in its
# standard error. A process killed by a signal has no exit status
# (execute_process reports a text instead), so it fails.
#   cmake -DTOOL=... -DARGS=... -DEXPECT=2 -DMATCH=... -P expect_exit.cmake
execute_process(COMMAND ${TOOL} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT)
    message(FATAL_ERROR "expected exit ${EXPECT}, got '${rc}'\n${out}\n${err}")
endif()
if(DEFINED MATCH)
    string(FIND "${out}" "${MATCH}" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR "output lacks '${MATCH}'\n${out}\n${err}")
    endif()
endif()
if(DEFINED MATCH_ERR)
    string(FIND "${err}" "${MATCH_ERR}" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR "stderr lacks '${MATCH_ERR}'\n${out}\n${err}")
    endif()
endif()
