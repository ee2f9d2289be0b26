# A config with an unknown key must fail cleanly: exit code 1 and the
# parser's pointed message on stderr, not std::terminate (SIGABRT).
#
# Run as: cmake -DCLUSTER_CONFIG=<path to cluster_config> -DWORK_DIR=<dir>
#               -P cluster_config_rejects_bad_key.cmake
execute_process(COMMAND "${CLUSTER_CONFIG}" --print-default
                OUTPUT_VARIABLE template RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "--print-default exited with ${status}")
endif()
set(config "${WORK_DIR}/cluster_config_bad_key.cfg")
file(WRITE "${config}" "${template}bogus_key = 3\n")
execute_process(COMMAND "${CLUSTER_CONFIG}" "${config}"
                ERROR_VARIABLE stderr RESULT_VARIABLE status)
file(REMOVE "${config}")
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "expected exit code 1, got '${status}'\n${stderr}")
endif()
string(FIND "${stderr}" "config: unknown key 'bogus_key'" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks the pointed message:\n${stderr}")
endif()
