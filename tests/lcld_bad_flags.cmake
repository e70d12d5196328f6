# Runs lcld once per malformed or out-of-range numeric flag and expects
# the one-line `lcld: ...` rejection with exit code 2 — never an abort,
# and never a daemon that starts serving. Only values the parser rejects
# are passed, so no test here starts a worker thread.
#
#   cmake -DLCLD=<path to lcld> -P tests/lcld_bad_flags.cmake
if(NOT LCLD)
  message(FATAL_ERROR "pass -DLCLD=<path to lcld>")
endif()

set(cases
  "--threads|abc" "--threads|0" "--threads|257" "--threads|2.7"
  "--threads|99999999999999999999" "--max-queue|99999999999999"
  "--max-queue|0" "--timeout-ms|xyz" "--timeout-ms|nan"
  "--timeout-ms|inf" "--cache-mb|-1" "--cache-mb|1048577"
  "--max-conns|-5" "--pipeline|1x")
set(failed 0)
foreach(c IN LISTS cases)
  string(REPLACE "|" ";" argv "${c}")
  execute_process(COMMAND "${LCLD}" ${argv}
    INPUT_FILE /dev/null
    RESULT_VARIABLE rc
    ERROR_VARIABLE err
    OUTPUT_QUIET
    TIMEOUT 20)
  string(REPLACE ";" " " shown "${argv}")
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "^lcld: ")
    message(SEND_ERROR "lcld ${shown}: exit '${rc}', stderr '${err}'")
    set(failed 1)
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "lcld accepted or crashed on a bad numeric flag")
endif()
