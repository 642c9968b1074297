# CLI smoke test: generate a small scenario, run both mechanisms on it,
# audit the online mechanism (must pass -> exit 0) and the second-price
# baseline is *not* required to pass here (random small rounds may or may
# not expose its manipulation, so we only require it to execute).
set(SCENARIO ${WORKDIR}/cli_smoke_scenario.mcs)

function(run_cli)
  execute_process(COMMAND ${CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "mcs_cli ${ARGN} failed (${code}):\n${out}\n${err}")
  endif()
endfunction()

# Integer flags are range-checked: a value that would narrow or wrap is
# an error naming the flag (exit 1), never a silently different run.
function(expect_flag_error flag)
  execute_process(COMMAND ${CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 1 OR NOT err MATCHES "flag --${flag} must be in")
    message(FATAL_ERROR "mcs_cli ${ARGN}: want exit 1 naming --${flag}, "
                        "got (${code}):\n${out}\n${err}")
  endif()
endfunction()

expect_flag_error(shards serve --rounds 1 --shards 4294967297)
expect_flag_error(slots serve --rounds 1 --slots 4294967346)
expect_flag_error(queue-depth serve --rounds 1 --queue-depth -1)
# One past each documented cap (ServeConfig::kMaxQueueCapacity,
# TracePlaneConfig::kMaxRingCapacity): refused before anything is allocated.
expect_flag_error(queue-depth serve --rounds 1 --queue-depth 1048577)
expect_flag_error(trace-threshold-us serve --rounds 1
                  --trace-jsonl ${WORKDIR}/cli_smoke_flag.jsonl
                  --trace-threshold-us -1)
expect_flag_error(trace-capacity serve --rounds 1
                  --trace-jsonl ${WORKDIR}/cli_smoke_flag.jsonl
                  --trace-capacity -1)
expect_flag_error(trace-capacity serve --rounds 1
                  --trace-jsonl ${WORKDIR}/cli_smoke_flag.jsonl
                  --trace-capacity 16385)
expect_flag_error(econ-probe-every serve --rounds 1
                  --econ-out ${WORKDIR}/cli_smoke_flag.jsonl
                  --econ-probe-every -3)
expect_flag_error(slots generate --out ${SCENARIO} --slots 4294967346)
expect_flag_error(reps figure --id fig7 --reps 4294967298)
expect_flag_error(threads arena --rounds 1 --threads 4294967297)
expect_flag_error(top trace-report ${WORKDIR}/cli_smoke_flag.jsonl --top -1)
expect_flag_error(phone explain ${WORKDIR}/cli_smoke_flag.jsonl
                  --phone 4294967296)
file(REMOVE ${WORKDIR}/cli_smoke_flag.jsonl)

run_cli(generate --out ${SCENARIO} --slots 8 --lambda 3 --lambda-t 1.5
        --mean-cost 10 --value 25 --seed 7)
if(NOT EXISTS ${SCENARIO})
  message(FATAL_ERROR "generate did not write ${SCENARIO}")
endif()

run_cli(run --file ${SCENARIO} --mechanism online --allocation)
run_cli(run --file ${SCENARIO} --mechanism offline)
# Batched matching is not one of the paper's mechanisms: the name is
# refused like any unknown one.
execute_process(COMMAND ${CLI} run --file ${SCENARIO} --mechanism batched
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 1 OR NOT err MATCHES "unknown mechanism 'batched'")
  message(FATAL_ERROR "run --mechanism batched: want exit 1 naming the "
                      "unknown mechanism, got (${code}):\n${out}\n${err}")
endif()
run_cli(run --file ${SCENARIO} --mechanism online --reserve 24
        --profitable-only)

run_cli(run --file ${SCENARIO} --mechanism online --json ${WORKDIR}/cli_smoke_report.json)
if(NOT EXISTS ${WORKDIR}/cli_smoke_report.json)
  message(FATAL_ERROR "run --json did not write the report")
endif()
file(REMOVE ${WORKDIR}/cli_smoke_report.json)

# Telemetry: --metrics-out must produce a valid mcs.telemetry.v1 JSON
# report with the headline work counters and a non-empty trace.
set(METRICS ${WORKDIR}/cli_smoke_metrics.json)
run_cli(run --file ${SCENARIO} --mechanism online --metrics-out ${METRICS} --trace)
if(NOT EXISTS ${METRICS})
  message(FATAL_ERROR "run --metrics-out did not write the telemetry report")
endif()
file(READ ${METRICS} metrics_json)
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  # Full structural validation: parse errors abort, and the counters
  # object must carry the headline keys.
  string(JSON schema GET "${metrics_json}" schema)
  if(NOT schema STREQUAL "mcs.telemetry.v1")
    message(FATAL_ERROR "unexpected telemetry schema: ${schema}")
  endif()
  foreach(counter
      matching.hungarian.iterations
      auction.critical_value.probes
      auction.greedy.allocation_runs)
    string(JSON value GET "${metrics_json}" counters ${counter})
    if(value STREQUAL "")
      message(FATAL_ERROR "telemetry counters missing ${counter}")
    endif()
  endforeach()
  string(JSON trace_len LENGTH "${metrics_json}" trace)
  if(trace_len EQUAL 0)
    message(FATAL_ERROR "telemetry trace is empty")
  endif()
else()
  if(NOT metrics_json MATCHES "\"schema\":\"mcs\\.telemetry\\.v1\"")
    message(FATAL_ERROR "telemetry report lacks the schema marker")
  endif()
endif()

# Perf-regression sentinel: two telemetry reports of the same seeded run
# must self-compare clean (the work counters are deterministic), and the
# markdown verdict must land on stdout.
set(METRICS2 ${WORKDIR}/cli_smoke_metrics2.json)
run_cli(run --file ${SCENARIO} --mechanism online --metrics-out ${METRICS2})
execute_process(COMMAND ${CLI} bench-diff ${METRICS} ${METRICS2}
                        --json ${WORKDIR}/cli_smoke_bench_diff.json
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE diff_code
                OUTPUT_VARIABLE diff_out
                ERROR_VARIABLE diff_err)
if(NOT diff_code EQUAL 0)
  message(FATAL_ERROR "bench-diff self-compare regressed (${diff_code}):\n${diff_out}\n${diff_err}")
endif()
if(NOT diff_out MATCHES "bench-diff: OK")
  message(FATAL_ERROR "bench-diff verdict missing from stdout:\n${diff_out}")
endif()
file(READ ${WORKDIR}/cli_smoke_bench_diff.json diff_json)
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  string(JSON diff_verdict GET "${diff_json}" verdict)
  if(NOT diff_verdict STREQUAL "ok")
    message(FATAL_ERROR "bench-diff JSON verdict: ${diff_verdict}")
  endif()
endif()
file(REMOVE ${WORKDIR}/cli_smoke_bench_diff.json)
file(REMOVE ${METRICS2})
file(REMOVE ${METRICS})

# Chrome trace export: --trace-out must write a trace JSON whose
# traceEvents carry the pipeline spans.
set(TRACE ${WORKDIR}/cli_smoke_trace.json)
run_cli(run --file ${SCENARIO} --mechanism online --trace-out ${TRACE})
if(NOT EXISTS ${TRACE})
  message(FATAL_ERROR "run --trace-out did not write the chrome trace")
endif()
file(READ ${TRACE} trace_json)
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  string(JSON trace_events_len LENGTH "${trace_json}" traceEvents)
  if(trace_events_len LESS 2)
    message(FATAL_ERROR "chrome trace has no span events")
  endif()
  string(JSON first_name GET "${trace_json}" traceEvents 1 name)
  if(NOT first_name STREQUAL "cli.run")
    message(FATAL_ERROR "chrome trace root span is ${first_name}, want cli.run")
  endif()
else()
  if(NOT trace_json MATCHES "\"traceEvents\"")
    message(FATAL_ERROR "chrome trace lacks traceEvents")
  endif()
endif()
file(REMOVE ${TRACE})

run_cli(audit --file ${SCENARIO} --mechanism offline)

# Flight recorder: record a decision log, verify the header, require the
# replay determinism oracle to pass (exit 0 = byte-identical outcome), and
# require explain to print the first certified winner's certificate.
set(EVENTS ${WORKDIR}/cli_smoke_events.jsonl)
run_cli(run --file ${SCENARIO} --mechanism online --events-out ${EVENTS})
if(NOT EXISTS ${EVENTS})
  message(FATAL_ERROR "run --events-out did not write the decision log")
endif()
file(READ ${EVENTS} events_head LIMIT 128)
if(NOT events_head MATCHES "mcs\\.events\\.v1")
  message(FATAL_ERROR "decision log lacks the mcs.events.v1 header")
endif()
run_cli(replay ${EVENTS})
file(READ ${EVENTS} events_text)
string(REGEX MATCH "payment_certificate\",\"phone\":([0-9]+)" _ "${events_text}")
execute_process(COMMAND ${CLI} explain ${EVENTS} --phone "${CMAKE_MATCH_1}"
                WORKING_DIRECTORY ${WORKDIR} RESULT_VARIABLE code OUTPUT_VARIABLE out)
if(NOT code EQUAL 0 OR NOT out MATCHES "\npayment certificate [a-z_]+: ")
  message(FATAL_ERROR "explain of a certified winner (${code}):\n${out}")
endif()
file(REMOVE ${EVENTS})

run_cli(run --file ${SCENARIO} --mechanism offline --events-out ${EVENTS})
run_cli(replay ${EVENTS})
file(REMOVE ${EVENTS})

file(REMOVE ${SCENARIO})

# figure subcommand at tiny rep count (plumbing only).
run_cli(figure --id fig7 --reps 2 --csv ${WORKDIR}/cli_smoke_fig7.csv)
if(NOT EXISTS ${WORKDIR}/cli_smoke_fig7.csv)
  message(FATAL_ERROR "figure --csv did not write the series")
endif()
file(REMOVE ${WORKDIR}/cli_smoke_fig7.csv)

# report subcommand at tiny rep count.
run_cli(report --out ${WORKDIR}/cli_smoke_report.html --reps 2)
if(NOT EXISTS ${WORKDIR}/cli_smoke_report.html)
  message(FATAL_ERROR "report did not write the HTML file")
endif()
file(REMOVE ${WORKDIR}/cli_smoke_report.html)

# Served outcomes are kept only for --verify; the summary line reads the
# engine's stats, so it is the same with or without it.
function(serve_summary out_var)
  execute_process(COMMAND ${CLI} serve ${ARGN}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "mcs_cli serve ${ARGN} failed (${code}):\n${out}\n${err}")
  endif()
  string(REGEX MATCH "served [^\n]*" line "${out}")
  set(${out_var} "${line}" PARENT_SCOPE)
endfunction()
serve_summary(plain_summary --rounds 40)
serve_summary(verified_summary --rounds 40 --verify)
if(plain_summary STREQUAL "" OR NOT plain_summary STREQUAL verified_summary)
  message(FATAL_ERROR "serve summary differs with --verify:\n"
                      "${plain_summary}\n${verified_summary}")
endif()

# A round lost to a stream error (a duplicate bid) under --admission
# reject is reported even though nothing was shed.
set(DUP_BID ${WORKDIR}/cli_smoke_dup_bid.jsonl)
file(WRITE ${DUP_BID} [=[{"schema":"mcs.serve.v1"}
{"ev":"round_open","round":0,"slots":1,"value":"50"}
{"ev":"task_arrived","round":0,"slot":1,"task":0}
{"ev":"bid_submitted","round":0,"agent":0,"from":1,"to":1,"cost":"5"}
{"ev":"bid_submitted","round":0,"agent":0,"from":1,"to":1,"cost":"5"}
{"ev":"slot_tick","round":0,"slot":1}
{"ev":"round_close","round":0}
]=])
execute_process(COMMAND ${CLI} serve --replay ${DUP_BID} --admission reject
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 0 OR NOT out MATCHES " 1 rounds abandoned mid-flight"
   OR out MATCHES "admission control shed")
  message(FATAL_ERROR "duplicate bid under --admission reject "
                      "(${code}):\n${out}\n${err}")
endif()
file(REMOVE ${DUP_BID})

# A stream that ends before its last round_close: the open round is
# abandoned at drain and reported under either admission policy.
set(NO_CLOSE ${WORKDIR}/cli_smoke_no_close.jsonl)
file(WRITE ${NO_CLOSE} [=[{"schema":"mcs.serve.v1"}
{"ev":"round_open","round":0,"slots":1,"value":"50"}
{"ev":"task_arrived","round":0,"slot":1,"task":0}
{"ev":"bid_submitted","round":0,"agent":0,"from":1,"to":1,"cost":"5"}
{"ev":"slot_tick","round":0,"slot":1}
{"ev":"round_close","round":0}
{"ev":"round_open","round":1,"slots":1,"value":"50"}
{"ev":"task_arrived","round":1,"slot":1,"task":0}
{"ev":"slot_tick","round":1,"slot":1}
]=])
foreach(admission block reject)
  execute_process(COMMAND ${CLI} serve --replay ${NO_CLOSE}
                          --admission ${admission}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0 OR NOT out MATCHES " 1 rounds completed"
     OR NOT out MATCHES "lost rounds: 0 orphaned events dropped, 0 rounds abandoned mid-flight, 1 rounds open at drain")
    message(FATAL_ERROR "stream without its last round_close under "
                        "--admission ${admission} (${code}):\n${out}\n${err}")
  endif()
endforeach()
file(REMOVE ${NO_CLOSE})

# Untrusted input: a 32 MB line with no '\n', as a serve stream and as a
# scenario file. It is refused at line 1 as soon as it crosses the
# 4096-byte line cap (kMaxJsonlLineBytes, kMaxScenarioLineBytes), not
# buffered to the end of the file.
set(LONG_LINE ${WORKDIR}/cli_smoke_long_line.jsonl)
string(REPEAT "x" 1024 kib)
string(REPEAT "${kib}" 32768 long_line)
file(WRITE ${LONG_LINE} "${long_line}")
unset(long_line)
foreach(command "serve;--replay" "run;--file")
  execute_process(COMMAND ${CLI} ${command} ${LONG_LINE}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 1 OR NOT err MATCHES "line 1: longer than 4096 bytes")
    message(FATAL_ERROR "${command} on a 32 MB line without a newline "
                        "(${code}):\n${out}\n${err}")
  endif()
endforeach()
file(REMOVE ${LONG_LINE})

# Untrusted stream: one bid from agent 2^30 - 1. A served round keeps its
# winners sparsely and builds no outcome sized by the id, so the round
# completes under a 4 GB address-space cap with either admission policy,
# with the econ plane off or on (it skips a round whose ids are not
# 0..n-1 without building its outcome).
if(VMEM_CAP)
  set(HUGE_ID ${WORKDIR}/cli_smoke_huge_id.jsonl)
  file(WRITE ${HUGE_ID} [=[{"schema":"mcs.serve.v1"}
{"ev":"round_open","round":0,"slots":1,"value":"50"}
{"ev":"task_arrived","round":0,"slot":1,"task":0}
{"ev":"bid_submitted","round":0,"agent":1073741823,"from":1,"to":1,"cost":"5"}
{"ev":"slot_tick","round":0,"slot":1}
{"ev":"round_close","round":0}
]=])
  foreach(admission block reject)
    foreach(econ OFF ON)
      set(econ_args)
      if(econ)
        set(econ_args --econ-out ${WORKDIR}/cli_smoke_huge_id_econ.jsonl)
      endif()
      execute_process(COMMAND sh -c "ulimit -v 4000000 && exec \"$0\" \"$@\""
                              ${CLI} serve --replay ${HUGE_ID}
                              --admission ${admission} ${econ_args}
                      WORKING_DIRECTORY ${WORKDIR}
                      RESULT_VARIABLE code
                      OUTPUT_VARIABLE out
                      ERROR_VARIABLE err)
      if(NOT code EQUAL 0 OR NOT out MATCHES ": 1 rounds completed")
        message(FATAL_ERROR "huge agent id under --admission ${admission}, "
                            "econ ${econ} (${code}):\n${out}\n${err}")
      endif()
    endforeach()
  endforeach()
  file(REMOVE ${HUGE_ID} ${WORKDIR}/cli_smoke_huge_id_econ.jsonl)
endif()
