# `ldke` on a malformed or out-of-range numeric option: the run must stop
# before building anything, print one line naming the flag and exit 2.
# One valid edge value per flag must still run and exit 0.
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

function(check_accepted)
  execute_process(COMMAND ${LDKE} ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${ARGN}: expected exit status 0, got '${rc}'\n${err}")
  endif()
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
