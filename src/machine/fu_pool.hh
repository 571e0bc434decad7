/**
 * @file
 * Functional-unit pool configuration shared by the baseline RISC
 * model and the multithreaded core.
 *
 * The paper's seven heterogeneous units are one of each class below
 * with one load/store unit; the "two load/store unit" configuration
 * of section 3 sets load_store = 2 (eight units, as in Table 3).
 */

#ifndef SMTSIM_MACHINE_FU_POOL_HH
#define SMTSIM_MACHINE_FU_POOL_HH

#include "base/logging.hh"
#include "isa/op.hh"

namespace smtsim
{

/** Number of functional units of each class. */
struct FuPoolConfig
{
    int int_alu = 1;
    int shifter = 1;
    int int_mul = 1;
    int fp_add = 1;
    int fp_mul = 1;
    int fp_div = 1;
    int load_store = 1;

    int
    count(FuClass cls) const
    {
        switch (cls) {
          case FuClass::IntAlu: return int_alu;
          case FuClass::Shifter: return shifter;
          case FuClass::IntMul: return int_mul;
          case FuClass::FpAdd: return fp_add;
          case FuClass::FpMul: return fp_mul;
          case FuClass::FpDiv: return fp_div;
          case FuClass::LoadStore: return load_store;
          default:
            panic("FuPoolConfig::count: bad class");
        }
    }

    int
    total() const
    {
        return int_alu + shifter + int_mul + fp_add + fp_mul +
               fp_div + load_store;
    }

    /** Field list (base/fields.hh) of the lab's config JSON. */
    template <class Ar, class Self>
    static void
    fields(Ar &ar, Self &s)
    {
        ar("int_alu", s.int_alu);
        ar("shifter", s.shifter);
        ar("int_mul", s.int_mul);
        ar("fp_add", s.fp_add);
        ar("fp_mul", s.fp_mul);
        ar("fp_div", s.fp_div);
        ar("load_store", s.load_store);
    }
};

/** Human-readable FU class name. */
const char *fuClassName(FuClass cls);

} // namespace smtsim

#endif // SMTSIM_MACHINE_FU_POOL_HH
