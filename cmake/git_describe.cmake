# Writes OUT, a header that defines MRLR_GIT_DESCRIBE as the output of
# `git describe --always --dirty --tags` in SOURCE_DIR, or "unknown"
# outside a git checkout. The header is rewritten only when the value
# changes, so a rebuild of an unchanged tree recompiles nothing.
#
#   cmake -DSOURCE_DIR=<checkout> -DOUT=<header> -P git_describe.cmake

execute_process(
  COMMAND git describe --always --dirty --tags
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE describe
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR describe STREQUAL "")
  set(describe "unknown")
endif()

set(content "#pragma once\n// Generated by cmake/git_describe.cmake on every build.\n#define MRLR_GIT_DESCRIBE \"${describe}\"\n")
set(old "")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT old STREQUAL content)
  file(WRITE ${OUT} "${content}")
endif()
