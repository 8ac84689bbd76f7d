# CTest driver: fcrsim's CLI error paths must exit nonzero with a ONE-LINE
# diagnosed error on stderr — taxonomy category plus an actionable hint —
# never an unhandled exception / abort.

function(expect_cli_error name expected_category expected_hint_fragment)
  execute_process(
    COMMAND ${FCRSIM} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${name}: expected failure, got exit 0")
  endif()
  # An abort/signal shows up as a non-numeric result ("SIGABRT" etc.).
  if(NOT rc MATCHES "^[0-9]+$")
    message(FATAL_ERROR "${name}: crashed (${rc}) instead of a clean error")
  endif()
  if(NOT err MATCHES "fcrsim: error\\[${expected_category}\\]")
    message(FATAL_ERROR
      "${name}: stderr lacks 'fcrsim: error[${expected_category}]':\n${err}")
  endif()
  if(NOT err MATCHES "${expected_hint_fragment}")
    message(FATAL_ERROR
      "${name}: stderr lacks hint '${expected_hint_fragment}':\n${err}")
  endif()
  string(STRIP "${err}" err_line)
  if(err_line MATCHES "\n")
    message(FATAL_ERROR "${name}: stderr is not one line:\n${err}")
  endif()
endfunction()

expect_cli_error(missing_deployment_file io "check the path"
  --deployment-file ${WORKDIR}/definitely_missing_deployment.csv --trials 2)

# strtod parses "nan"; the deployment must reject it on one line instead of
# hanging in the spatial index.
file(WRITE ${WORKDIR}/cli_nan_deployment.csv "x,y\n0,0\nnan,1\n2,2\n")
expect_cli_error(nan_deployment_file config "non-finite"
  --deployment-file ${WORKDIR}/cli_nan_deployment.csv --trials 2)

expect_cli_error(resume_without_checkpoint config "--help"
  --n 16 --trials 2 --resume)

expect_cli_error(zero_retries config "--help"
  --n 16 --trials 2 --retries 0 --checkpoint ${WORKDIR}/cli_err.ckpt)

expect_cli_error(negative_threads config "--help"
  --n 16 --trials 2 --threads -3)

# Unsigned flags reject negative values instead of wrapping around, and an
# integer that does not fit in 64 bits is rejected instead of clamped.
expect_cli_error(negative_round_budget config "--help"
  --n 16 --trials 2 --round-budget -1)

expect_cli_error(negative_max_rounds config "--help"
  --n 16 --trials 2 --max-rounds -1)

expect_cli_error(negative_n config "--help"
  --n -1 --trials 2)

expect_cli_error(negative_trials config "--help"
  --n 16 --trials -1)

expect_cli_error(overflowing_round_budget config "--help"
  --n 16 --trials 2 --round-budget 99999999999999999999999)

# A corrupt checkpoint under --resume is NOT an error: the campaign must
# report the rejection and fall back to a fresh run (exit 0).
file(WRITE ${WORKDIR}/cli_corrupt.ckpt "this is not a checkpoint")
execute_process(
  COMMAND ${FCRSIM} --n 16 --trials 2
          --checkpoint ${WORKDIR}/cli_corrupt.ckpt --resume
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "corrupt checkpoint must fall back to a fresh run, got exit ${rc}:\n${err}")
endif()
if(NOT out MATCHES "checkpoint rejected")
  message(FATAL_ERROR
    "fresh-run fallback must report the rejection:\n${out}")
endif()
