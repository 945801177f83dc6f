# presp-flow's integer flags are strict: a malformed value, or one that
# does not fit the flag's type, must exit with exactly 2 (a usage error)
# before the flow runs. A crash or a silently accepted value would exit
# otherwise, so WILL_FAIL is not enough. One well-formed run must still
# exit 0.
#
# Run: cmake -DFLOW=<path to presp-flow> -DCONFIG=<.esp_config>
#            -P flow_cli_test.cmake
set(misuses
  ""                                        # no config
  "CFG --no-physical --tau abc"             # non-numeric value
  "CFG --no-physical --tau 3x"              # trailing garbage
  "CFG --no-physical --threads abc"
  "CFG --no-physical --threads 4294967300"  # does not fit in an int
  "CFG --no-physical --threads"             # flag without a value
  "CFG --no-physical --cache-max-bytes 1M"  # suffixes are not parsed
  "CFG --no-physical --ops-port abc"
  "CFG --no-physical --ops-port 4294976476" # 9180 plus 2^32
  "CFG --no-physical --strategy bogus"      # unknown strategy
  "CFG --no-physical --bogus"               # unknown flag
  "CFG CFG --no-physical")                  # two configs

foreach(args IN LISTS misuses)
  string(REPLACE "CFG" "${CONFIG}" args "${args}")
  separate_arguments(argv UNIX_COMMAND "${args}")
  execute_process(COMMAND "${FLOW}" ${argv}
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT status STREQUAL "2")
    message(FATAL_ERROR
            "presp-flow ${argv}: expected exit status 2, got '${status}'")
  endif()
  if(NOT err MATCHES "usage: [^ ]*presp-flow")
    message(FATAL_ERROR "presp-flow ${argv}: no usage message on stderr")
  endif()
endforeach()

execute_process(COMMAND "${FLOW}" "${CONFIG}" --no-physical --tau 2
                        --threads 2 --cache-max-bytes 1048576
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "presp-flow ${CONFIG} --no-physical: expected 0, "
                      "got '${status}'")
endif()
