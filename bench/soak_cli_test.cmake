# bench_soak's command line is strict: every misuse below must exit with
# exactly 2 (a usage error) before any soak runs. A crash or a silently
# accepted typo would exit otherwise, so WILL_FAIL is not enough. One
# well-formed short sweep must still exit 0.
#
# Run: cmake -DSOAK=<path to bench_soak> -P soak_cli_test.cmake
set(misuses
  ""                              # no scenario
  "bogus"                         # unknown scenario
  "fleet 1 1 60 --repak"          # unknown flag
  "fleet 1 1 60 --repack"         # deleted flag
  "chaos abc"                     # non-numeric positional
  "fleet 1x"                      # trailing garbage
  "fleet 1 1 60 7"                # too many positionals
  "fleet 1 1 60 --json"           # --json without a value
  "fleet 1 1 60 --ops-port"       # --ops-port without a value
  "fleet --ops-port 70000"        # port out of range
  "defrag --ops-port 0"           # ops overlay is fleet-only
  "chaos --ops-port 0"
  "chaos --json report.json"      # chaos writes no report
  "fleet 1 0"                     # num_seeds < 1
  "fleet 1 1 49"                  # below the fleet minimum of 50
  "defrag 1 1 39"                 # below the defrag minimum of 40
  "chaos 1 1 0")                  # below the chaos minimum of 1

foreach(args IN LISTS misuses)
  separate_arguments(argv UNIX_COMMAND "${args}")
  execute_process(COMMAND "${SOAK}" ${argv}
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT status STREQUAL "2")
    message(FATAL_ERROR
            "bench_soak ${argv}: expected exit status 2, got '${status}'")
  endif()
  if(NOT err MATCHES "usage: bench_soak")
    message(FATAL_ERROR "bench_soak ${argv}: no usage message on stderr")
  endif()
endforeach()

execute_process(COMMAND "${SOAK}" chaos 1 1 1
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "bench_soak chaos 1 1 1: expected 0, got '${status}'")
endif()
