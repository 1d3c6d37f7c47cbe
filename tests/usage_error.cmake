# Usage-error check for the positional arguments of the bench and example
# binaries: running BIN with ARGS must exit 2, print nothing to stdout
# (no work started), and name the offending argument (EXPECT) on stderr.
#
# Expects: -DBIN=<binary> -DARGS=<space-separated argv> -DEXPECT=<substring>

separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BIN}" ${argv}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "'${BIN} ${ARGS}' exited ${rc}, expected 2\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "'${BIN} ${ARGS}' printed to stdout:\n${out}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name '${EXPECT}':\n${err}")
endif()
