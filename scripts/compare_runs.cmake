# End-to-end determinism check: runs sim_driver over each scenario once per
# setting of the flag that varies, and fails unless every run of one
# scenario prints byte-identical output.
#
#   cmake -DSIM_DRIVER=<path-to-sim_driver> -DVARY="--jobs=1 --jobs=4"
#         -DSCENARIOS="<flags>|<flags>" -P scripts/compare_runs.cmake
#
# VARY lists the settings to compare, space-separated; SCENARIOS lists the
# scenarios, each a space-separated flag string, separated by '|'.
# Invoked by ctest (see tools/CMakeLists.txt).
foreach(required SIM_DRIVER VARY SCENARIOS)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "pass -D${required}=... (see the header comment)")
  endif()
endforeach()

separate_arguments(settings UNIX_COMMAND "${VARY}")
string(REPLACE "|" ";" scenarios "${SCENARIOS}")
foreach(scenario IN LISTS scenarios)
  separate_arguments(scenario_args UNIX_COMMAND "${scenario}")
  set(reference_setting "")
  foreach(setting IN LISTS settings)
    execute_process(COMMAND ${SIM_DRIVER} ${scenario_args} ${setting}
                    OUTPUT_VARIABLE out
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${scenario} ${setting}: run failed (exit ${rc})")
    endif()
    if(reference_setting STREQUAL "")
      set(reference_setting "${setting}")
      set(reference_out "${out}")
    elseif(NOT out STREQUAL reference_out)
      message(FATAL_ERROR "${scenario}: ${setting} diverged from "
                          "${reference_setting}:\n"
                          "${reference_setting}: ${reference_out}"
                          "${setting}: ${out}")
    endif()
  endforeach()
  message(STATUS "${scenario}: byte-identical across ${VARY}")
endforeach()
