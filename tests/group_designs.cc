#include "tests/group_designs.h"

#include "core/compiler/pass.h"
#include "core/dsl/builder.h"

namespace assassyn {
namespace test {

using namespace dsl;

std::unique_ptr<System>
buildGroupOverflow()
{
    SysBuilder sb("contract_group_overflow");
    Stage sink = sb.stage("sink", {{"a", uintType(8)}, {"b", uintType(8)}});
    sink.fifoDepthAll(2);
    Stage d = sb.driver();
    Reg cyc = sb.reg("cyc", uintType(8));
    Reg acc = sb.reg("acc", uintType(8));
    {
        StageScope scope(sink);
        waitUntil([&] {
            return sink.argValid("a") & (cyc.read().slice(1, 0) != 3);
        });
        Val sum = sink.arg("a") + sink.arg("b");
        acc.write(sum);
        log("sum {}", {sum});
    }
    {
        StageScope scope(d);
        Val v = cyc.read();
        cyc.write(v + 1);
        asyncCall(sink, {v, v + 1});
    }
    compile(sb.sys());
    return sb.take();
}

std::unique_ptr<System>
buildGroupDoublePush(bool reordered)
{
    SysBuilder sb(reordered ? "contract_group_double_push_reordered"
                            : "contract_group_double_push");
    Stage sink = sb.stage("sink", {{"a", uintType(8)}, {"b", uintType(8)}});
    sink.fifoDepthAll(4);
    Stage d = sb.driver();
    Reg cyc = sb.reg("cyc", uintType(8));
    Reg acc = sb.reg("acc", uintType(8));
    {
        StageScope scope(sink);
        Val sum = sink.arg("a") + sink.arg("b");
        acc.write(sum);
        log("sum {}", {sum});
    }
    {
        StageScope scope(d);
        Val v = cyc.read();
        cyc.write(v + 1);
        when(v.bit(0) == 0, [&] { asyncCall(sink, {v, v + 1}); });
        when(v == lit(6, 8), [&] {
            if (reordered)
                asyncCall(bind(sink, {}), {{"b", v}, {"a", v + 2}});
            else
                asyncCall(sink, {v + 2, v});
        });
    }
    compile(sb.sys());
    return sb.take();
}

} // namespace test
} // namespace assassyn
