# Runs cascade_calibrate with the same arguments at --threads 1, at
# --threads 4 and at the default (the global pool), and fails unless all
# three runs print byte-identical threshold tables. Registered as a ctest in
# tools/CMakeLists.txt, which passes -DTOOL=<cascade_calibrate binary> and
# -DOUT=<directory for the tables>.

set(args --dim 1024 --train 60 --scenes 1 --scene-width 96 --scene-height 72
         --window 16 --stride 8 --faces 1)
set(threads_serial --threads 1)
set(threads_four --threads 4)
set(threads_default)
file(MAKE_DIRECTORY "${OUT}")
foreach(run serial four default)
  execute_process(COMMAND "${TOOL}" ${args} ${threads_${run}}
                  OUTPUT_FILE "${OUT}/table_${run}.txt"
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "cascade_calibrate run ${run} exited with ${status}")
  endif()
endforeach()
foreach(run four default)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${OUT}/table_serial.txt" "${OUT}/table_${run}.txt"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "cascade_calibrate printed different tables at "
                        "different thread counts: ${OUT}/table_serial.txt vs "
                        "table_${run}.txt")
  endif()
endforeach()
