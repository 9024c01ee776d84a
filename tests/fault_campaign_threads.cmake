# Runs `fault_campaign --quick` with one and with two domain threads in
# fresh directories under WORK and fails unless BENCH_resilience.json
# and the printed tables are byte-identical: checkpoints, fault
# injection and classification must not depend on the thread count.
#
# Usage: cmake -DBIN=<fault_campaign> -DWORK=<dir> -P fault_campaign_threads.cmake
foreach(threads 1 2)
    set(dir ${WORK}/sa${threads})
    file(REMOVE_RECURSE ${dir})
    file(MAKE_DIRECTORY ${dir})
    execute_process(
        COMMAND ${BIN} --quick --jobs 2 --sa-threads ${threads}
        WORKING_DIRECTORY ${dir}
        OUTPUT_FILE ${dir}/stdout.txt
        ERROR_FILE ${dir}/stderr.txt
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "fault_campaign --sa-threads ${threads} exited with ${rc}")
    endif()
endforeach()
foreach(file BENCH_resilience.json stdout.txt)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORK}/sa1/${file} ${WORK}/sa2/${file}
        RESULT_VARIABLE differ)
    if(NOT differ EQUAL 0)
        message(FATAL_ERROR
                "${file} differs between --sa-threads 1 and 2")
    endif()
endforeach()
