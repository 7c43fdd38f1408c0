# Stats smoke run (ctest `stats_smoke`): run the quickstart example under
# ST_STATS=1 and ST_METRICS, then fail unless every `[st-stats runtime ...]`
# row on stderr names every key of the snapshot's runtime "counters"
# object, as ` key=value`.  Both renders come from one counter table
# (ST_RUNTIME_COUNTERS in src/runtime/worker.hpp); this catches a render
# that drifts from it.
# Parameters: -DQUICKSTART=..., -DOUT=... (see tests/CMakeLists.txt).
if(NOT QUICKSTART OR NOT OUT)
  message(FATAL_ERROR "stats_smoke.cmake needs -DQUICKSTART, -DOUT")
endif()

file(REMOVE "${OUT}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "ST_STATS=1" "ST_METRICS=${OUT}" "${QUICKSTART}" 18
  RESULT_VARIABLE run_rc
  ERROR_VARIABLE run_err)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "ST_STATS quickstart run failed (rc=${run_rc}):\n${run_err}")
endif()
if(NOT EXISTS "${OUT}")
  message(FATAL_ERROR "ST_METRICS=${OUT} produced no snapshot file")
endif()

file(READ "${OUT}" snapshot)
string(REGEX MATCH "\"kind\":\"runtime\"[^}]*\"counters\":{([^}]*)}" _ "${snapshot}")
set(counters "${CMAKE_MATCH_1}")
string(REGEX MATCHALL "\"[a-z_]+\":" keys "${counters}")
list(LENGTH keys n_keys)
if(n_keys EQUAL 0)
  message(FATAL_ERROR "no runtime \"counters\" object in ${OUT}")
endif()

string(REGEX MATCHALL "\\[st-stats runtime [^\n]*" rows "${run_err}")
list(LENGTH rows n_rows)
if(n_rows EQUAL 0)
  message(FATAL_ERROR "ST_STATS=1 printed no [st-stats runtime ...] row:\n${run_err}")
endif()
foreach(row IN LISTS rows)
  foreach(quoted IN LISTS keys)
    string(REGEX REPLACE "\"([a-z_]+)\":" "\\1" key "${quoted}")
    if(NOT row MATCHES " ${key}=[0-9]+( |$)")
      message(FATAL_ERROR "ST_STATS row lacks counter '${key}':\n${row}")
    endif()
  endforeach()
endforeach()
message(STATUS "${n_rows} ST_STATS runtime row(s) name all ${n_keys} counters")
