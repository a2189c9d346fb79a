# The cli_serve_golden ctest: at IMPREG_THREADS 1 and 4, runs
# query-batch and then serve (--snapshot-every=2) on mixed.jsonl, serve
# on resume.jsonl with the same state, and serve on missing_edge.jsonl
# (exit 3, no answers), and compares each stdout, exit code and WAL file
# with the goldens in tests/golden/serve/. Re-record them only for a
# change meant to move served bytes, and say why in CHANGES.md.
#
#   cmake -DCLI=<impreg_cli> -DGOLDEN_DIR=<tests/golden/serve>
#         -DOUT_DIR=<scratch dir> -P serve_golden.cmake

foreach(var CLI GOLDEN_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "serve_golden: -D${var}=... is required")
  endif()
endforeach()

function(expect_same what got want)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${got} ${want}
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(SEND_ERROR "${what}: ${got} differs from ${want}")
  endif()
endfunction()

# run_cli(<threads> <golden stdout> <exit code> <impreg_cli args...>)
function(run_cli threads golden want_rc)
  set(dir ${OUT_DIR}/threads-${threads})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env IMPREG_THREADS=${threads} ${CLI} ${ARGN}
    WORKING_DIRECTORY ${dir}
    OUTPUT_FILE ${dir}/stdout
    ERROR_VARIABLE stderr
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL want_rc)
    message(SEND_ERROR "IMPREG_THREADS=${threads} impreg_cli ${ARGN}: "
                       "exit ${rc}, want ${want_rc}\n${stderr}")
  endif()
  expect_same("IMPREG_THREADS=${threads} impreg_cli ${ARGN}: stdout"
              ${dir}/stdout ${golden})
endfunction()

set(in ${GOLDEN_DIR})
foreach(threads 1 4)
  set(dir ${OUT_DIR}/threads-${threads})
  file(REMOVE_RECURSE ${dir})
  file(MAKE_DIRECTORY ${dir})
  set(state --wal=serve.wal --snapshot-dir=snapshots --snapshot-every=2)
  run_cli(${threads} ${in}/mixed.out 0
          query-batch ${in}/graph.edges ${in}/mixed.jsonl)
  run_cli(${threads} ${in}/mixed.out 0
          serve ${in}/graph.edges ${in}/mixed.jsonl ${state})
  run_cli(${threads} ${in}/resume.out 0
          serve ${in}/graph.edges ${in}/resume.jsonl ${state})
  file(WRITE ${dir}/empty "")
  run_cli(${threads} ${dir}/empty 3
          serve ${in}/graph.edges ${in}/missing_edge.jsonl
          --wal=missing_edge.wal --snapshot-dir=missing --snapshot-every=2)
  foreach(wal serve.wal missing_edge.wal)
    expect_same("IMPREG_THREADS=${threads} ${wal}" ${dir}/${wal} ${in}/${wal})
  endforeach()
endforeach()
