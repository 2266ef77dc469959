# Size check: fails when any file under a directory has more than a given
# number of lines, so no part of the program outgrows one sitting's read.
#
#   cmake -DDIR=<path-to-src> -DMAX_LINES=1000 -P scripts/file_size_check.cmake
#
# Lines are counted as `wc -l` counts them: one per newline.  Invoked by
# ctest (see tests/CMakeLists.txt).
foreach(required DIR MAX_LINES)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "pass -D${required}=... (see the header comment)")
  endif()
endforeach()

file(GLOB_RECURSE paths LIST_DIRECTORIES false "${DIR}/*")
if(NOT paths)
  message(FATAL_ERROR "${DIR}: no files to check")
endif()
set(too_long "")
foreach(path IN LISTS paths)
  file(READ "${path}" text)
  string(REGEX MATCHALL "\n" newlines "${text}")
  list(LENGTH newlines lines)
  if(lines GREATER MAX_LINES)
    file(RELATIVE_PATH name "${DIR}" "${path}")
    list(APPEND too_long "${name} (${lines})")
  endif()
endforeach()
if(too_long)
  list(JOIN too_long ", " listing)
  message(FATAL_ERROR "over ${MAX_LINES} lines: ${listing}")
endif()
list(LENGTH paths count)
message(STATUS "${count} files under ${DIR}, none over ${MAX_LINES} lines")
