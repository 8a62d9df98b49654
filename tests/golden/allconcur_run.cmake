# Golden-output check for tools/allconcur_run: the simulated deployment is
# fully deterministic, so identical flags must print byte-identical
# reports. Each case below runs the tool and compares stdout with
# tests/golden/allconcur_run_<name>.txt.
#
#   cmake -DRUN=build/allconcur_run -P tests/golden/allconcur_run.cmake
#
# Add -DUPDATE=ON to rewrite the golden files from the current build (only
# when a change is meant to alter the simulated behaviour).
cmake_minimum_required(VERSION 3.16)

if(NOT RUN)
  message(FATAL_ERROR "pass -DRUN=<path to allconcur_run>")
endif()
get_filename_component(golden_dir "${CMAKE_CURRENT_LIST_DIR}" ABSOLUTE)

# "name flags...", space-separated. Run lengths are cut to well under a
# second each; crashes and joins are scheduled relative to --seconds.
set(cases
  "default --seconds=0.3"
  "crashes --n=16 --crashes=2 --seconds=0.3"
  "membership --n=8 --joins=1 --crashes=1 --auto-heal --seconds=0.3"
  "heartbeat_fd --n=12 --crashes=2 --heartbeat-fd --seconds=0.3"
  "dp --n=9 --dp --crashes=1 --seconds=0.3"
  "ibv --n=32 --fabric=ibv --req-bytes=512 --seconds=0.02"
)

set(failed "")
foreach(c IN LISTS cases)
  separate_arguments(parts UNIX_COMMAND "${c}")
  list(GET parts 0 name)
  list(REMOVE_AT parts 0)
  set(golden "${golden_dir}/allconcur_run_${name}.txt")
  execute_process(COMMAND "${RUN}" ${parts}
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${name}: allconcur_run ${parts} exited with ${rc}")
    list(APPEND failed ${name})
    continue()
  endif()
  if(UPDATE)
    file(WRITE "${golden}" "${out}")
    message(STATUS "${name}: wrote ${golden}")
    continue()
  endif()
  file(READ "${golden}" expected)
  if(NOT out STREQUAL expected)
    message(SEND_ERROR "${name}: allconcur_run ${parts} differs from "
                       "${golden}\n--- expected\n${expected}--- got\n${out}")
    list(APPEND failed ${name})
  endif()
endforeach()

if(failed)
  message(FATAL_ERROR "golden mismatch: ${failed}")
endif()
