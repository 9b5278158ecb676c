# Runs `${BENCH} ${ARG} --no-json` and fails unless it exits with status 2
# (the bench CLI contract for a malformed flag value).
#   cmake -DBENCH=<binary> -DARG=<argument> -P expect_exit_2.cmake
execute_process(COMMAND "${BENCH}" "${ARG}" --no-json
                RESULT_VARIABLE result
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT result EQUAL 2)
  message(FATAL_ERROR
          "${BENCH} ${ARG}: expected exit 2, got '${result}'\n${out}${err}")
endif()
