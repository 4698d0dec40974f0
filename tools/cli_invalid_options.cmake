# `ldke`, `ldke_viz` and `ldke_trace` on a malformed or out-of-range
# numeric argument (or an unknown ldke_trace option): the run must stop
# before building anything, print one line naming the argument and exit
# 2.  One valid edge value per argument must still run and exit 0.
#
# check_rejected(<flag> <value> <command and other options>...) runs
# `ldke <command...> <flag> <value>`; the value is quoted so that an
# empty one stays an argument.

function(check_rejected flag value)
  execute_process(COMMAND ${LDKE} ${ARGN} ${flag} "${value}"
                  RESULT_VARIABLE rc
                  ERROR_VARIABLE err)
  set(cmd "${ARGN} ${flag} '${value}'")
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${cmd}: expected exit status 2, got '${rc}'\n${err}")
  endif()
  string(STRIP "${err}" line)
  if(line MATCHES "\n" OR NOT line MATCHES "^ldke: ${flag} expects ")
    message(FATAL_ERROR "${cmd}: expected one line naming ${flag}:\n${err}")
  endif()
endfunction()

# check_tool_rejected(<tool> <line start> <arguments>...) runs
# `<tool> <arguments...>` and expects exit status 2 with one stderr line
# that begins with <line start>.
function(check_tool_rejected tool start)
  execute_process(COMMAND ${tool} ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${ARGN}: expected exit status 2, got '${rc}'\n${err}")
  endif()
  string(STRIP "${err}" line)
  if(line MATCHES "\n" OR NOT line MATCHES "^${start}")
    message(FATAL_ERROR "${ARGN}: expected one line '${start}...':\n${err}")
  endif()
endfunction()

# check_tool_accepted(<tool> <arguments>...) expects exit status 0.
function(check_tool_accepted tool)
  execute_process(COMMAND ${tool} ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${ARGN}: expected exit status 0, got '${rc}'\n${err}")
  endif()
endfunction()

function(check_accepted)
  check_tool_accepted(${LDKE} ${ARGN})
endfunction()

check_rejected(-n -5 setup)
check_rejected(-n abc setup)
check_rejected(-n "" setup)
check_rejected(-n 1e30 setup)
check_rejected(-n 50x setup)
check_rejected(-d -3 setup -n 50)
check_rejected(-d nan setup -n 50)
check_rejected(-s -1 setup -n 50)
check_rejected(-s 1.5 setup -n 50)
check_rejected(-t 0 sweep -n 60)
check_rejected(--loss 2 setup -n 50)
check_rejected(--lanes -1 setup -n 50)
check_rejected(--lanes 256 setup -n 50)
check_rejected(--duration -1 steady -n 50)

check_accepted(setup -n 1)
check_accepted(setup -n 50 -d 0.5)
check_accepted(setup -n 50 -s 0)
check_accepted(sweep -n 60 -t 1)
check_accepted(setup -n 50 --loss 0)
check_accepted(setup -n 50 --loss 1)
check_accepted(setup -n 50 --lanes 1)
check_accepted(steady -n 50 --duration 0.1)

# ldke_viz <out.svg> [nodes] [density] [seed]
set(svg ${WORKDIR}/cli_invalid_options.svg)
check_tool_rejected(${LDKE_VIZ} "ldke_viz: nodes expects " ${svg} abc)
check_tool_rejected(${LDKE_VIZ} "ldke_viz: nodes expects " ${svg} 0)
check_tool_rejected(${LDKE_VIZ} "ldke_viz: nodes expects " ${svg} -5)
check_tool_rejected(${LDKE_VIZ} "ldke_viz: density expects " ${svg} 400 -5)
check_tool_rejected(${LDKE_VIZ} "ldke_viz: density expects " ${svg} 400 0)
check_tool_rejected(${LDKE_VIZ} "ldke_viz: density expects " ${svg} 400 nan)
check_tool_rejected(${LDKE_VIZ} "ldke_viz: seed expects " ${svg} 400 12 -1)
check_tool_rejected(${LDKE_VIZ} "ldke_viz: seed expects " ${svg} 400 12 1.5)

check_tool_accepted(${LDKE_VIZ} ${svg} 1)
check_tool_accepted(${LDKE_VIZ} ${svg} 50 0.5)
check_tool_accepted(${LDKE_VIZ} ${svg} 50 10 0)

# ldke_trace <command> <trace.jsonl> [-n k]
set(trace ${WORKDIR}/cli_invalid_options.jsonl)
check_accepted(setup -n 50 --trace ${trace})
check_tool_rejected(${LDKE_TRACE} "ldke_trace: -n expects " talkers ${trace} -n abc)
check_tool_rejected(${LDKE_TRACE} "ldke_trace: -n expects " talkers ${trace} -n -1)
check_tool_rejected(${LDKE_TRACE} "ldke_trace: -n expects " talkers ${trace} -n 0)
check_tool_rejected(${LDKE_TRACE} "ldke_trace: -n expects " talkers ${trace} -n)
check_tool_rejected(${LDKE_TRACE} "ldke_trace: unknown option: --top"
                    talkers ${trace} --top 3)

check_tool_accepted(${LDKE_TRACE} talkers ${trace} -n 1)
