# Bad user input exits 2 with a message on stderr: it never aborts on an
# internal check and never hangs. Every run is bounded by `timeout`
# seconds, so a parse loop that never ends fails here instead of stalling
# the suite.
#
#   cmake -DCLI=<example_kboost_cli> -DVIRAL_MARKETING=<its example>
#         -DWORK_DIR=<dir> -P bad_input.cmake
#   cmake -DHARNESS=<a bench_fig*/bench_table* binary> -P bad_input.cmake

function(expect_usage_error)
  execute_process(COMMAND ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT ${timeout})
  if(NOT rc STREQUAL "2")
    message(SEND_ERROR "'${ARGN}' exited '${rc}', want 2:\n${err}")
  elseif(err STREQUAL "")
    message(SEND_ERROR "'${ARGN}' exited 2 without a message")
  endif()
endfunction()

if(DEFINED HARNESS)
  # A harness rejects its flags before any work. The runaway this guards
  # against (a --k list parse that never advances) also grows memory by
  # about 1 GB/s, so it is cut off early.
  set(timeout 2)
  expect_usage_error(${HARNESS} --k=10x)
  expect_usage_error(${HARNESS} --k=10,)
  expect_usage_error(${HARNESS} --scale=abc)
  expect_usage_error(${HARNESS} --scale=2)
  expect_usage_error(${HARNESS} --epsilon=1)
  expect_usage_error(${HARNESS} --sims=0)
  return()
endif()

set(timeout 20)
set(graph ${WORK_DIR}/bad_input_graph.txt)
set(unused ${WORK_DIR}/bad_input_unused.txt)
execute_process(
  COMMAND ${CLI} generate --dataset=digg --scale=0.005 --out=${graph}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "generate failed (${rc}):\n${err}")
endif()

expect_usage_error(${CLI} generate --dataset=digg --scale=abc --out=${unused})
expect_usage_error(${CLI} generate --dataset=digg --scale=2 --out=${unused})
expect_usage_error(${CLI} generate --dataset=nope --out=${unused})
expect_usage_error(${CLI} generate --dataset=digg --beta=abc --out=${unused})
expect_usage_error(${CLI} generate --dataset=digg --beta=0.5 --out=${unused})
expect_usage_error(${CLI} seeds --graph=${graph} --count=0)
expect_usage_error(${CLI} seeds --graph=${graph} --count=999999)
expect_usage_error(${CLI} evaluate --graph=${graph} --seeds=0,1
                   --boost=999999)
expect_usage_error(${CLI} evaluate --graph=${graph} --seeds=0,1 --boost=2
                   --sims=0)
expect_usage_error(${CLI} boost --graph=${graph} --seeds=0,1 --k=5
                   --epsilon=0.5x)
# The pool is one arena: there is no shard count to set.
expect_usage_error(${CLI} boost --graph=${graph} --seeds=0,1 --k=5
                   --shards=4)
# A loaded pool never samples, so a sampling width has nothing to size:
# not on `boost --load-pool`, and not on `serve` (kboostd's command).
expect_usage_error(${CLI} boost --graph=${graph} --load-pool=${unused}
                   --threads=2)
expect_usage_error(${CLI} serve --graph=${graph} --pool=a=${unused}
                   --threads=2)
# A command that no longer exists is unknown: usage, exit 2.
expect_usage_error(${CLI} serve-bench --graph=${graph})
expect_usage_error(${VIRAL_MARKETING} abc)
expect_usage_error(${VIRAL_MARKETING} 2)
file(REMOVE ${graph} ${unused})
