# Structural checks of `cfcm_cli --json`, parsed with string(JSON) so
# they hold whatever the key order is, and fail on any output that is
# not one well-formed JSON document.
#
#   cmake -DCLI=<cfcm_cli> -DCASE=<case> -DWORKDIR=<dir> -P tests/cli_json.cmake
#
# Cases:
#   document          a solve, an evaluate, an augment and a failing job
#                     in one run whose source path holds '"' and '\';
#                     then a --k 40 solve on karate, whose per-job error
#                     must be {"code":"invalid_argument",...}
#   augment_to_group  an augment job's type, k, candidates and a
#                     non-empty "added"
foreach(var CLI CASE WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_json: -D${var}=... is required")
  endif()
endforeach()

# Runs the CLI with ARGN, requires exit code `rc_expected` and a
# well-formed JSON document on stdout, which lands in `out_var`.
function(run_cli out_var rc_expected)
  execute_process(COMMAND ${CLI} ${ARGN}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL rc_expected)
    message(FATAL_ERROR
            "cli_json: exit ${rc} (want ${rc_expected}) for ${ARGN}\n${err}")
  endif()
  string(JSON type ERROR_VARIABLE parse_error TYPE "${out}")
  if(parse_error OR NOT type STREQUAL "OBJECT")
    message(FATAL_ERROR "cli_json: not a JSON object (${parse_error}):\n${out}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Requires the member at path ARGN of `doc` to equal `want`.
function(expect doc want)
  string(JSON got ERROR_VARIABLE error GET "${doc}" ${ARGN})
  if(error OR NOT got STREQUAL want)
    message(FATAL_ERROR
            "cli_json: ${ARGN} is '${got}' (${error}), want '${want}'\n${doc}")
  endif()
endfunction()

# Requires the member at path ARGN of `doc` to have JSON type `want`.
function(expect_type doc want)
  string(JSON got ERROR_VARIABLE error TYPE "${doc}" ${ARGN})
  if(error OR NOT got STREQUAL want)
    message(FATAL_ERROR
            "cli_json: ${ARGN} has type '${got}' (${error}), want '${want}'")
  endif()
endfunction()

# Requires a non-empty array at path ARGN of `doc`.
function(expect_nonempty doc)
  string(JSON n ERROR_VARIABLE error LENGTH "${doc}" ${ARGN})
  if(error OR n LESS 1)
    message(FATAL_ERROR "cli_json: ${ARGN} is empty (${error})\n${doc}")
  endif()
endfunction()

if(CASE STREQUAL "document")
  # An 8-cycle with two chords, under a path that needs JSON escaping.
  file(MAKE_DIRECTORY "${WORKDIR}")
  set(source "${WORKDIR}/edges \"q\" \\ back.txt")
  file(WRITE "${source}"
       "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 0\n0 4\n2 6\n")
  run_cli(doc 1 --graph "${source}" --algo forest --k 2 --evaluate 0,4
          --evaluate 0,0 --group 0,4 --augment 1 --json)
  expect("${doc}" "${source}" graph source)
  expect("${doc}" 8 graph nodes)
  string(JSON jobs LENGTH "${doc}" jobs)
  if(NOT jobs EQUAL 4)
    message(FATAL_ERROR "cli_json: ${jobs} jobs, want 4\n${doc}")
  endif()
  expect("${doc}" solve jobs 0 type)
  expect("${doc}" ok jobs 0 status)
  expect_nonempty("${doc}" jobs 0 selection)
  expect_type("${doc}" NUMBER jobs 0 cfcc)
  expect("${doc}" lazy jobs 0 selection_mode)
  expect("${doc}" evaluate jobs 1 type)
  expect("${doc}" ok jobs 1 status)
  expect_type("${doc}" NUMBER jobs 1 cfcc)
  expect("${doc}" evaluate jobs 2 type)
  expect("${doc}" error jobs 2 status)
  expect("${doc}" invalid_argument jobs 2 error code)
  expect("${doc}" augment jobs 3 type)
  expect("${doc}" ok jobs 3 status)
  expect_nonempty("${doc}" jobs 3 added)

  run_cli(k40 1 --graph karate --algo forest --k 40 --json)
  expect("${k40}" solve jobs 0 type)
  expect("${k40}" error jobs 0 status)
  expect("${k40}" invalid_argument jobs 0 error code)
  string(JSON message ERROR_VARIABLE error GET "${k40}" jobs 0 error message)
  if(error OR message STREQUAL "")
    message(FATAL_ERROR "cli_json: --k 40 error has no message\n${k40}")
  endif()
elseif(CASE STREQUAL "augment_to_group")
  run_cli(doc 0 --graph karate --group 0,33 --augment 2 --candidates group
          --json)
  expect("${doc}" augment jobs 0 type)
  expect("${doc}" 2 jobs 0 k)
  expect("${doc}" group jobs 0 candidates)
  expect_nonempty("${doc}" jobs 0 added)
else()
  message(FATAL_ERROR "cli_json: unknown CASE '${CASE}'")
endif()
message(STATUS "cli_json: ${CASE} ok")
