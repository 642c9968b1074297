# bench_smoke: every workload at one tenth of its size, end-to-end and
# traced, each in its own mcs_bench process. Passes when every run exits 0
# and its last stdout line reports "correct":true.
#   cmake -DBENCH=<mcs_bench> -DCLI=<mcs_cli> -DOUT=<dir> -P smoke.cmake
foreach(workload table1-replay large-rounds tiny-rounds-socket)
  foreach(mode e2e traced)
    set(extra)
    if(mode STREQUAL "traced")
      set(extra --trace 1)
    endif()
    execute_process(
      COMMAND ${BENCH} --workload ${workload} --smoke --seconds 5 ${extra}
              --cli ${CLI} --out-dir ${OUT}
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    string(STRIP "${out}" out)
    string(REGEX REPLACE ".*\n" "" last "${out}")
    if(NOT rc EQUAL 0 OR NOT last MATCHES "^\\{\"correct\":true,")
      message(FATAL_ERROR "${workload} (${mode}) failed (exit ${rc}):\n${out}\n${err}")
    endif()
    message(STATUS "${workload} (${mode}): ${last}")
  endforeach()
endforeach()
