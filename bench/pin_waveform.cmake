# Runs one waveform harness in the current directory and compares the
# VCD it writes with a pinned SHA-256, so a change to the model, the
# transport or the VCD writer cannot alter the paper's Fig. 5 / Fig. 9
# waveforms unnoticed:
#
#   cmake -DPROGRAM=<harness> -DVCD=<file> -DSHA256=<hex> -P pin_waveform.cmake
#
# A deliberate change to a waveform re-records its digest in
# bench/CMakeLists.txt.
file(REMOVE "${VCD}")
execute_process(COMMAND "${PROGRAM}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${rc}")
endif()
file(SHA256 "${VCD}" digest)
if(NOT digest STREQUAL SHA256)
  message(FATAL_ERROR "${VCD}: SHA-256 ${digest}, pinned ${SHA256}")
endif()
