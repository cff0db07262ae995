# Byte-identity gate for the sampled and exact solvers: runs a fixed set
# of `cfcm_cli --json` solves, masks the wall-clock `seconds` fields and
# compares the result with a checked-in golden file.
#
#   cmake -DCLI=<cfcm_cli> -DGOLDEN=<golden.json> -DACTUAL=<out.json> \
#         -P tests/cli_golden.cmake
#
# The masked output is always written to ACTUAL. When a change alters
# results on purpose, review the difference and copy ACTUAL over GOLDEN.
foreach(var CLI GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_golden: -D${var}=... is required")
  endif()
endforeach()

set(graphs karate karate-w ba:400,3 grid:20x20)
set(common --k 6 --eps 0.3 --seed 1 --threads 2 --json)

set(actual "")
foreach(graph ${graphs})
  foreach(run lazy exhaustive)
    if(run STREQUAL "lazy")
      set(algos forest,schur,exact,degree,topcfcc)
    else()
      set(algos forest,schur)
    endif()
    execute_process(
      COMMAND ${CLI} --graph ${graph} --algo ${algos} --selection ${run}
              ${common}
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "cli_golden: ${graph} ${run} exited ${rc}\n${err}")
    endif()
    string(REGEX REPLACE "\"seconds\":[0-9.eE+-]+" "\"seconds\":0" out
           "${out}")
    string(APPEND actual "# ${graph} ${run}\n${out}")
  endforeach()
endforeach()

file(WRITE ${ACTUAL} "${actual}")
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
          "cli_golden: masked output differs from ${GOLDEN}; "
          "see ${ACTUAL} (diff the two files)")
endif()
message(STATUS "cli_golden: ${GOLDEN} matches")
