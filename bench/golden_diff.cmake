# Runs BIN and requires its stdout to equal the GOLDEN file byte for byte.
# The output is kept at OUT so a failure can be diffed by hand.
execute_process(COMMAND ${BIN}
                RESULT_VARIABLE code
                OUTPUT_FILE ${OUT}
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${BIN} failed (${code}):\n${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
  file(READ ${OUT} actual)
  message(FATAL_ERROR "stdout differs from ${GOLDEN}; got:\n${actual}")
endif()
