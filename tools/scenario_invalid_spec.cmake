# `ldke scenario` on a spec that parses but breaks a ScenarioSpec rule:
# the run must stop before building anything, print one line
# "<path>: invalid spec: <problem>" and exit 1 (not abort).

function(check_rejected name duty problem)
  set(spec ${WORKDIR}/invalid_spec_${name}.json)
  file(WRITE ${spec} "{
  \"schema_version\": 1,
  \"name\": \"invalid_${name}\",
  \"nodes\": 60,
  \"density\": 10.0,
  \"side_m\": 300.0,
  \"duty\": ${duty},
  \"phases\": [
    { \"name\": \"only\", \"duration_s\": 1.0, \"duty\": true }
  ]
}
")
  execute_process(COMMAND ${LDKE} scenario ${spec} -s 3
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "${name}: expected exit status 1, got '${rc}'\n${err}")
  endif()
  set(want "${spec}: invalid spec: ${problem}")
  string(FIND "${err}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${name}: stderr lacks '${want}':\n${err}")
  endif()
endfunction()

check_rejected(active_fraction
  "{ \"period_s\": 1.0, \"active_fraction\": 1.5 }"
  "duty.active_fraction must be in (0, 1]")
check_rejected(period
  "{ \"period_s\": 1e-10, \"active_fraction\": 0.5 }"
  "duty.period_s must be >= 1e-9")
