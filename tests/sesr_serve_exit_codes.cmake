# Exit codes of the shipped sesr-serve binary, run as a CMake script:
#
#   cmake -DSESR_SERVE=<path to sesr-serve> -P sesr_serve_exit_codes.cmake
#
# A runtime failure (an address no interface holds, so bind() fails) must
# exit 1 with the error and no option table; a bad command line must exit 2
# with the option table.

function(run_serve expected_code expect_table)
  execute_process(COMMAND "${SESR_SERVE}" ${ARGN}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 60)
  set(all "${out}${err}")
  string(REPLACE ";" " " args "${ARGN}")
  if(NOT code STREQUAL "${expected_code}")
    message(FATAL_ERROR "sesr-serve ${args}: exit ${code}, want ${expected_code}\n${all}")
  endif()
  string(FIND "${all}" "options:" table_at)
  if(expect_table AND table_at EQUAL -1)
    message(FATAL_ERROR "sesr-serve ${args}: no option table\n${all}")
  endif()
  if(NOT expect_table AND NOT table_at EQUAL -1)
    message(FATAL_ERROR "sesr-serve ${args}: printed the option table\n${all}")
  endif()
  message(STATUS "sesr-serve ${args}: exit ${code} as expected")
endfunction()

# 203.0.113.0/24 is TEST-NET-3 (RFC 5737): assigned to no local interface.
run_serve(1 FALSE --bind 203.0.113.1 --auth-token t --duration-s 1)
run_serve(2 TRUE --no-such-flag)
