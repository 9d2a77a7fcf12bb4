# Runs COMMAND (a ;-separated list) and fails unless it exits with status
# EXPECTED exactly. A crash reports a signal string instead of a number,
# so it fails too.
#
#   cmake -DCOMMAND="prog;arg" -DEXPECTED=2 -P expect_exit_code.cmake
execute_process(COMMAND ${COMMAND} RESULT_VARIABLE result)
if(NOT result STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "${COMMAND}: expected exit status ${EXPECTED}, got "
                      "'${result}'")
endif()
