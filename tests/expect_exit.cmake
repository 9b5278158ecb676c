# Runs `${BENCH} ${ARGS} --no-json` and fails unless it exits with status
# ${CODE}: 2 is the bench CLI contract for a malformed flag value, 1 for a
# failed gate. ARGS is one space-separated string.
#   cmake -DBENCH=<binary> -DCODE=<status> "-DARGS=<arg> <arg>..."
#         -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args} --no-json
                RESULT_VARIABLE result
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT result EQUAL CODE)
  message(FATAL_ERROR
          "${BENCH} ${ARGS}: expected exit ${CODE}, got '${result}'\n"
          "${out}${err}")
endif()
