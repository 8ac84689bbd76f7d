# CTest driver: fcrsim's run modes must agree from the command line.
#   0. The instance line describes trial 0's deployment: a traced run and a
#      run of its --deployment-out file print the same line.
#   1. On a fixed deployment with a stateful channel (rayleigh), the plain
#      batch, a checkpointing serial campaign and a 3-thread campaign write
#      the same CSV.
#   2. A checkpoint of one spec is rejected when resumed with another
#      (--alpha 3 vs --alpha 4, or a different --deployment-file), and the
#      resumed run writes the fresh run's CSV.
# Every file name starts with run_modes_ so parallel ctest runs of the
# other CLI scripts never share a file with this one.

function(fcrsim out_var)
  execute_process(
    COMMAND ${FCRSIM} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fcrsim ${ARGN} failed (${rc}):\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(expect_same_file a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
                  RESULT_VARIABLE differ)
  if(differ)
    file(READ ${a} a_text)
    file(READ ${b} b_text)
    message(FATAL_ERROR "${what}: ${a} and ${b} differ:\n${a_text}\n---\n${b_text}")
  endif()
endfunction()

set(W ${WORKDIR}/run_modes)
file(REMOVE ${W}_dep.csv ${W}_dep2.csv ${W}_trace.csv ${W}_plain.csv
     ${W}_ckpt.csv ${W}_threads.csv ${W}.ckpt ${W}_a3.csv ${W}_a4.csv
     ${W}_resumed.csv ${W}_file.ckpt ${W}_file_resumed.csv ${W}_file2.csv)

# --- 0. the instance line is trial 0's deployment.
fcrsim(traced --n 64 --trials 1 --trace ${W}_trace.csv
       --deployment-out ${W}_dep.csv)
fcrsim(reread --deployment-file ${W}_dep.csv --trials 1)
string(REGEX MATCH "instance:[^\n]*" traced_line "${traced}")
string(REGEX MATCH "instance:[^\n]*" reread_line "${reread}")
if(traced_line STREQUAL "" OR NOT traced_line STREQUAL reread_line)
  message(FATAL_ERROR "the instance line is not the traced deployment's:\n"
                      "${traced_line}\n${reread_line}")
endif()

# --- 1. fixed deployment, stateful channel: every mode writes one CSV.
set(fixed --deployment-file ${W}_dep.csv --channel rayleigh --trials 40
          --max-rounds 100000)
fcrsim(ignored ${fixed} --csv ${W}_plain.csv)
fcrsim(ignored ${fixed} --threads 1 --checkpoint ${W}.ckpt
       --csv ${W}_ckpt.csv)
fcrsim(ignored ${fixed} --threads 3 --csv ${W}_threads.csv)
expect_same_file(${W}_plain.csv ${W}_ckpt.csv "plain vs --threads 1 --checkpoint")
expect_same_file(${W}_plain.csv ${W}_threads.csv "plain vs --threads 3")

# --- 2. a checkpoint only resumes the spec that wrote it.
set(spec --n 64 --trials 20)
fcrsim(ignored ${spec} --threads 1 --checkpoint ${W}.ckpt --alpha 3
       --csv ${W}_a3.csv)
fcrsim(resumed ${spec} --threads 1 --checkpoint ${W}.ckpt --resume
       --alpha 4 --csv ${W}_resumed.csv)
if(NOT resumed MATCHES "checkpoint rejected")
  message(FATAL_ERROR "--alpha 4 resumed an --alpha 3 checkpoint:\n${resumed}")
endif()
fcrsim(ignored ${spec} --alpha 4 --csv ${W}_a4.csv)
expect_same_file(${W}_a4.csv ${W}_resumed.csv "resumed --alpha 4 vs fresh")

fcrsim(ignored --n 64 --seed 2 --trials 1 --trace ${W}_trace.csv
       --deployment-out ${W}_dep2.csv)
fcrsim(ignored --deployment-file ${W}_dep.csv ${spec} --threads 1
       --checkpoint ${W}_file.ckpt)
fcrsim(resumed --deployment-file ${W}_dep2.csv ${spec} --threads 1
       --checkpoint ${W}_file.ckpt --resume --csv ${W}_file_resumed.csv)
if(NOT resumed MATCHES "checkpoint rejected")
  message(FATAL_ERROR
    "a checkpoint of one --deployment-file resumed another:\n${resumed}")
endif()
fcrsim(ignored --deployment-file ${W}_dep2.csv ${spec} --csv ${W}_file2.csv)
expect_same_file(${W}_file2.csv ${W}_file_resumed.csv
                 "resumed --deployment-file vs fresh")
